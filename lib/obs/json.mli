(** A minimal JSON tree: enough to render the observability exports
    deterministically and to parse them back for schema validation.

    The repository deliberately has no external JSON dependency; exporters
    build values of {!t} and render with {!to_string}.  Rendering is a pure
    function of the tree — object members are emitted in the order given, so
    callers build objects from sorted bindings
    ({!Mdcc_util.Table.sorted_bindings}) and two identical runs produce
    byte-identical output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no-whitespace) rendering.  Strings are escaped per RFC 8259;
    non-finite floats render as [null] (JSON has no representation for
    them). *)

val escape : string -> string
(** The body of a JSON string literal for [s], escaped per RFC 8259
    (without the surrounding quotes). *)

val parse : string -> (t, string) result
(** Parse a complete JSON document.  [Error msg] carries the offset and
    reason of the first syntax error; trailing garbage is an error.  Numbers
    without [.]/[e] parse as [Int], all others as [Float]. *)

val member : string -> t -> t option
(** [member name (Obj _)] looks up a field; [None] on missing field or
    non-object. *)

val to_list : t -> t list
(** The elements of a [List]; [\[\]] otherwise. *)
