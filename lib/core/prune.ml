open Netgraph

type spec = { k : int }

let default_k = 16

let spec k =
  if k < 1 then invalid_arg "Prune.spec: k >= 1";
  { k }

type t = {
  spec : spec;
  ev : Engine.Evaluator.t;
  n : int;
  no_op : bool;
  pool : int array; (* middlepoint pool, best score first *)
  nf : float array; (* scratch node-flow row *)
  memo : (int * int, int array) Hashtbl.t; (* pair -> pruned candidates *)
}

(* A node on EVERY shortest src-dst path splits the direct ECMP flow
   exactly as the two-segment detour through it would (every shortest
   src-w path extends to a shortest src-dst path and vice versa), so
   the greedy can never strictly improve by picking it — dropping such
   nodes is result-preserving.  The tolerance only tolerates float
   accumulation noise of the throughflow sum. *)
let on_every_path nf w = nf.(w) >= 1. -. 1e-9

(* Deterministic score order: strictly larger score first, node id
   breaking ties. *)
let sort_by_score scores idx =
  Array.sort
    (fun a b ->
      if scores.(a) > scores.(b) then -1
      else if scores.(a) < scores.(b) then 1
      else compare a b)
    idx

let prepare (octx : Obs.Ctx.t) spec ev demands =
  let tracer = octx.Obs.Ctx.tracer in
  let tok = Obs.Tracer.start tracer "prune:prepare" in
  let g = Engine.Evaluator.graph ev in
  let n = Digraph.node_count g in
  let no_op = spec.k >= n in
  let nf = Array.make n 0. in
  let pool =
    if no_op then Array.init n Fun.id
    else begin
      (* Aggregate demands into distinct (src, dst) pairs, first-seen
         order, so duplicate pairs are scored once with summed size. *)
      let sizes = Hashtbl.create 64 in
      let keys = ref [] in
      Array.iter
        (fun (d : Network.demand) ->
          let key = (d.Network.src, d.Network.dst) in
          match Hashtbl.find_opt sizes key with
          | Some s -> Hashtbl.replace sizes key (s +. d.Network.size)
          | None ->
            Hashtbl.add sizes key d.Network.size;
            keys := key :: !keys)
        demands;
      (* ECMP-betweenness scores off the cached destination DAGs. *)
      let score = Array.make n 0. in
      List.iter
        (fun (src, dst) ->
          match Engine.Evaluator.node_flows ev ~src ~dst ~into:nf with
          | exception Engine.Evaluator.Unroutable _ -> ()
          | () ->
            let size = Hashtbl.find sizes (src, dst) in
            for w = 0 to n - 1 do
              if w <> src && w <> dst then
                score.(w) <- score.(w) +. (size *. nf.(w))
            done)
        (List.rev !keys);
      let by_score = Array.init n Fun.id in
      sort_by_score score by_score;
      Array.sub by_score 0 spec.k
    end
  in
  Obs.Tracer.attr tracer tok (Obs.Attr.int "k" spec.k);
  Obs.Tracer.attr tracer tok (Obs.Attr.int "pool" (Array.length pool));
  Obs.Tracer.finish tracer tok;
  { spec; ev; n; no_op; pool; nf; memo = Hashtbl.create 64 }

let pool t = Array.copy t.pool

let candidates t ~src ~dst =
  match Hashtbl.find_opt t.memo (src, dst) with
  | Some c -> c
  | None ->
    let c =
      if t.no_op then begin
        (* The documented no-op: the full candidate list in the exact
           ascending order the unpruned scan builds. *)
        let ws = ref [] in
        for w = t.n - 1 downto 0 do
          if w <> src && w <> dst then ws := w :: !ws
        done;
        Array.of_list !ws
      end
      else begin
        match Engine.Evaluator.node_flows t.ev ~src ~dst ~into:t.nf with
        | exception Engine.Evaluator.Unroutable _ -> [||]
        | () ->
          let kept = ref [] and nkept = ref 0 in
          let i = ref 0 and npool = Array.length t.pool in
          while !nkept < t.spec.k && !i < npool do
            let w = t.pool.(!i) in
            incr i;
            if
              w <> src && w <> dst
              && not (on_every_path t.nf w)
              && (t.nf.(w) > 0.
                 || Engine.Evaluator.reachable t.ev ~src:w ~dst)
            then begin
              kept := w :: !kept;
              incr nkept
            end
          done;
          Array.of_list (List.rev !kept)
      end
    in
    Hashtbl.add t.memo (src, dst) c;
    c
