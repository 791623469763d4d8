(* Shared construction context for protocol nodes.

   Coordinator, storage node and cluster constructors used to grow parallel
   optional-argument tails (?history, ?obs, ?local_nodes, ...); every new
   cross-cutting concern meant touching each signature and call site.  A
   [Ctx.t] bundles them once: build one context at the edge (a test, a CLI,
   the chaos runner), thread the same value everywhere. *)

type t = {
  history : History.t option;
      (* passive execution recorder for the chaos checker, if any *)
  obs : Mdcc_obs.Obs.t;  (* metrics registry + span collector *)
  local_nodes : int list;
      (* storage nodes co-located with a coordinator (one per partition);
         only coordinators consume this — other nodes ignore it *)
}

let make ?history ?obs ?(local_nodes = []) () =
  let obs = match obs with Some o -> o | None -> Mdcc_obs.Obs.ambient () in
  { history; obs; local_nodes }

let default () = make ()

let with_local_nodes t local_nodes = { t with local_nodes }
