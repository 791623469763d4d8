(** Record keys: a table name plus a primary key string. *)

type t = { table : string; id : string }

val make : table:string -> id:string -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** ["table/id"], for traces and option logs. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

module Tbl : sig
  include Hashtbl.S with type key = t

  val sorted_bindings : 'a t -> (key * 'a) list
  (** All bindings in {!compare} order of the keys — the deterministic
      replacement for [iter]/[fold] (see `mdcc_lint` rule R1). *)

  val sorted_iter : (key -> 'a -> unit) -> 'a t -> unit

  val sum : ('a -> int) -> 'a t -> int
  (** [sum f t] adds [f v] over every value — order-independent, so it
      walks the table unsorted. *)
end
