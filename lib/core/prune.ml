open Netgraph

type mode = Centrality | Coverage | Reach

type spec = { mode : mode; k : int }

let default_k = 16

let spec ?(mode = Centrality) k =
  if k < 1 then invalid_arg "Prune.spec: k >= 1";
  { mode; k }

let mode_name = function
  | Centrality -> "centrality"
  | Coverage -> "coverage"
  | Reach -> "reach"

let mode_of_string = function
  | "centrality" -> Ok Centrality
  | "coverage" -> Ok Coverage
  | "reach" -> Ok Reach
  | other ->
    Error
      (Printf.sprintf "unknown prune mode %S (centrality|coverage|reach)"
         other)

type t = {
  spec : spec;
  g : Digraph.t;
  ev : Engine.Evaluator.t;
  n : int;
  no_op : bool;
  util : float array; (* prepare-time per-edge utilization *)
  pool : int array; (* middlepoint pool, best score first *)
  nf : float array; (* scratch node-flow row *)
  u_dir : (int * int, float) Hashtbl.t; (* pair -> direct-route max util *)
  memo : (int * int, int array) Hashtbl.t; (* pair -> pruned candidates *)
}

(* A node on EVERY shortest src-dst path splits the direct ECMP flow
   exactly as the two-segment detour through it would (every shortest
   src-w path extends to a shortest src-dst path and vice versa), so
   the greedy can never strictly improve by picking it — dropping such
   nodes is result-preserving.  The tolerance only tolerates float
   accumulation noise of the throughflow sum. *)
let on_every_path nf w = nf.(w) >= 1. -. 1e-9

(* Direct-route hotness of a pair: the max prepare-time utilization over
   the edges its ECMP unit flow touches.  [neg_infinity] when the pair
   is unroutable or a self-loop. *)
let direct_hotness t ~src ~dst =
  match Hashtbl.find_opt t.u_dir (src, dst) with
  | Some u -> u
  | None ->
    let u =
      if src = dst then neg_infinity
      else
        match Engine.Evaluator.unit_load t.ev ~src ~dst with
        | exception Engine.Evaluator.Unroutable _ -> neg_infinity
        | sp ->
          Array.fold_left
            (fun acc e -> if t.util.(e) > acc then t.util.(e) else acc)
            neg_infinity sp.Engine.Evaluator.edges
    in
    Hashtbl.add t.u_dir (src, dst) u;
    u

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
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let caps = Digraph.caps g in
  let loads = Engine.Evaluator.loads ev in
  let util = Array.init m (fun e -> loads.(e) /. caps.(e)) in
  let no_op = spec.k >= n && spec.mode <> Reach in
  let t =
    { spec; g; ev; n; no_op; util; pool = [||];
      nf = Array.make n 0.; u_dir = Hashtbl.create 64;
      memo = Hashtbl.create 64 }
  in
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
      let pairs =
        Array.of_list
          (List.rev_map (fun (s, d) -> (s, d, Hashtbl.find sizes (s, d)))
             !keys)
      in
      let npairs = Array.length pairs in
      (* ECMP-betweenness scores off the cached destination DAGs.  The
         coverage variant needs every pair's throughflow row; centrality
         and reach only need the running sum. *)
      let keep_rows = spec.mode = Coverage in
      let rows = if keep_rows then Array.make npairs [||] else [||] in
      let weight = Array.make npairs 0. in
      let score = Array.make n 0. in
      Array.iteri
        (fun p (src, dst, size) ->
          match Engine.Evaluator.node_flows ev ~src ~dst ~into:t.nf with
          | exception Engine.Evaluator.Unroutable _ -> ()
          | () ->
            let w_p =
              match spec.mode with
              | Coverage ->
                (* Focus the pool on bottleneck-crossing flow: weight
                   each pair by how hot its direct route runs. *)
                size *. Float.max 0. (direct_hotness t ~src ~dst)
              | Centrality | Reach -> size
            in
            weight.(p) <- w_p;
            for w = 0 to n - 1 do
              if w <> src && w <> dst then
                score.(w) <- score.(w) +. (w_p *. t.nf.(w))
            done;
            if keep_rows then rows.(p) <- Array.copy t.nf)
        pairs;
      let by_score = Array.init n Fun.id in
      sort_by_score score by_score;
      match spec.mode with
      | Reach -> by_score (* no pool restriction; order feeds the cap *)
      | Centrality -> Array.sub by_score 0 (min spec.k n)
      | Coverage ->
        (* Greedy marginal coverage: each pick is the node adding the
           most not-yet-covered demand-weighted throughflow, so nodes
           sitting on the same bottleneck paths as earlier picks are
           penalized by exactly the flow those picks already cover. *)
        let k = min spec.k n in
        let chosen = Array.make n false in
        let covered = Array.make npairs 0. in
        let picks = ref [] and npicks = ref 0 in
        (try
           while !npicks < k do
             let best = ref (-1) and best_gain = ref 0. in
             for w = 0 to n - 1 do
               if not chosen.(w) then begin
                 let gain = ref 0. in
                 for p = 0 to npairs - 1 do
                   if weight.(p) > 0. && Array.length rows.(p) = n then begin
                     let src, dst, _ = pairs.(p) in
                     if w <> src && w <> dst then
                       gain :=
                         !gain
                         +. weight.(p)
                            *. Float.min rows.(p).(w) (1. -. covered.(p))
                   end
                 done;
                 if !gain > !best_gain then begin
                   best_gain := !gain;
                   best := w
                 end
               end
             done;
             if !best < 0 then raise Exit;
             chosen.(!best) <- true;
             picks := !best :: !picks;
             incr npicks;
             for p = 0 to npairs - 1 do
               if weight.(p) > 0. && Array.length rows.(p) = n then begin
                 let src, dst, _ = pairs.(p) in
                 if !best <> src && !best <> dst then
                   covered.(p) <-
                     Float.min 1. (covered.(p) +. rows.(p).(!best))
               end
             done
           done
         with Exit -> ());
        (* Marginal gains exhausted before k picks: pad from the plain
           centrality order so the pool size is still min k n. *)
        let picks = Array.of_list (List.rev !picks) in
        let pad = ref [] in
        Array.iter
          (fun w ->
            if (not chosen.(w)) && Array.length picks + List.length !pad < k
            then pad := w :: !pad)
          by_score;
        Array.append picks (Array.of_list (List.rev !pad))
    end
  in
  let t = { t with pool } in
  Obs.Tracer.attr tracer tok (Obs.Attr.str "mode" (mode_name spec.mode));
  Obs.Tracer.attr tracer tok (Obs.Attr.int "k" spec.k);
  Obs.Tracer.attr tracer tok (Obs.Attr.int "pool" (Array.length pool));
  Obs.Tracer.finish tracer tok;
  t

let pool t = Array.copy t.pool

let no_op t = t.no_op

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

let scan_skippable t ~loads ~u_min =
  Engine.Evaluator.mlu_of_loads t.g loads >= u_min -. 1e-12
