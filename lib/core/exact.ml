open Netgraph

exception Too_large of string

type enum_meta = { space : float; visited : int; truncated : bool }

(* The settings count k^m is computed in floating point on purpose: for
   the instance sizes where enumeration is hopeless anyway, an int power
   would silently wrap (e.g. 3^41 > 2^63) and could slip past the cap.
   A float comparison degrades to [infinity > cap] instead, which is
   always caught. *)
let iter_weight_settings ?(allow_truncate = false) ~domain ~m ~cap f =
  let k = List.length domain in
  if k = 0 then invalid_arg "Exact: weight domain is empty";
  if cap < 1 then invalid_arg "Exact: max_settings must be >= 1";
  let space = float_of_int k ** float_of_int m in
  if space > float_of_int cap && not allow_truncate then
    raise
      (Too_large
         (Printf.sprintf "Exact: %d^%d weight settings exceeds cap %d" k m cap));
  let dom = Array.of_list domain in
  let w = Array.make m dom.(0) in
  let idx = Array.make m 0 in
  let rec next pos =
    if pos >= m then false
    else if idx.(pos) + 1 < k then begin
      idx.(pos) <- idx.(pos) + 1;
      w.(pos) <- dom.(idx.(pos));
      true
    end
    else begin
      idx.(pos) <- 0;
      w.(pos) <- dom.(0);
      next (pos + 1)
    end
  in
  let visited = ref 0 in
  let continue = ref true in
  while !continue do
    f w;
    incr visited;
    continue := !visited < cap && next 0
  done;
  { space; visited = !visited; truncated = float_of_int !visited < space }

let lwo ?(weight_domain = [ 1; 2; 3 ]) ?(max_settings = 2_000_000)
    ?allow_truncate g demands =
  let m = Digraph.edge_count g in
  let demands = Demand.aggregate demands in
  let best_w = ref None and best = ref infinity in
  let meta =
    iter_weight_settings ?allow_truncate ~domain:weight_domain ~m
      ~cap:max_settings (fun w ->
        let mlu = Ecmp.mlu_of g (Weights.of_ints w) demands in
        if mlu < !best -. 1e-12 then begin
          best := mlu;
          best_w := Some (Array.copy w)
        end)
  in
  match !best_w with
  | Some w -> ((w, !best), meta)
  | None -> assert false

(* Branch and bound over per-demand waypoint choices.  [ub] prunes
   against an externally known bound (used by [joint]). *)
let wpo_bb g weights demands ~ub =
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let ev = Engine.Evaluator.create g weights in
  let k = Array.length demands in
  let loads = Array.make m 0. in
  let best = ref ub and best_assign = ref None in
  let assign = Array.make k None in
  let apply sign (s : Engine.Evaluator.sparse) scale =
    for i = 0 to Array.length s.Engine.Evaluator.edges - 1 do
      let e = s.Engine.Evaluator.edges.(i) in
      loads.(e) <- loads.(e) +. (sign *. scale *. s.Engine.Evaluator.flows.(i))
    done
  in
  let partial_mlu () = Engine.Evaluator.mlu_of_loads g loads in
  let segments d w =
    let s = d.Network.src and t = d.Network.dst in
    match w with
    | None -> [ Engine.Evaluator.unit_load ev ~src:s ~dst:t ]
    | Some wp ->
      [
        Engine.Evaluator.unit_load ev ~src:s ~dst:wp;
        Engine.Evaluator.unit_load ev ~src:wp ~dst:t;
      ]
  in
  let rec branch i =
    if partial_mlu () < !best -. 1e-12 then begin
      if i = k then begin
        best := partial_mlu ();
        best_assign := Some (Array.copy assign)
      end
      else begin
        let d = demands.(i) in
        let options =
          None
          :: List.filter_map
               (fun w ->
                 if w = d.Network.src || w = d.Network.dst then None
                 else Some (Some w))
               (List.init n Fun.id)
        in
        List.iter
          (fun opt ->
            match segments d opt with
            | exception Engine.Evaluator.Unroutable _ -> ()
            | segs ->
              List.iter (fun s -> apply 1. s d.Network.size) segs;
              assign.(i) <- opt;
              branch (i + 1);
              List.iter (fun s -> apply (-1.) s d.Network.size) segs)
          options
      end
    end
  in
  branch 0;
  match !best_assign with
  | Some a -> Some (a, !best)
  | None -> None

let wpo g weights demands =
  match wpo_bb g weights demands ~ub:infinity with
  | Some (a, v) -> (a, v)
  | None -> assert false (* ub = infinity always yields an assignment *)

let joint ?(weight_domain = [ 1; 2; 3 ]) ?(max_settings = 2_000_000)
    ?allow_truncate g demands =
  let m = Digraph.edge_count g in
  let best = ref infinity in
  let best_w = ref None and best_a = ref None in
  let meta =
    iter_weight_settings ?allow_truncate ~domain:weight_domain ~m
      ~cap:max_settings (fun w ->
        match wpo_bb g (Weights.of_ints w) demands ~ub:!best with
        | None -> ()
        | Some (a, v) ->
          best := v;
          best_w := Some (Array.copy w);
          best_a := Some a)
  in
  match (!best_w, !best_a) with
  | Some w, Some a -> ((w, a, !best), meta)
  | _ ->
    (* No weight setting beat infinity: impossible for routable demands. *)
    failwith "Exact.joint: no feasible assignment (unroutable demands?)"
