type t = { src : int; dst : int; size : float }

let make src dst size =
  if src = dst then invalid_arg "Demand.make: src = dst";
  if not (size > 0.) then invalid_arg "Demand.make: size must be positive";
  { src; dst; size }

(* Explicit integer comparator: no polymorphic [compare] and no
   [Hashtbl] keying on tuples, so demand order (and therefore LP column
   order and degenerate-optimum selection) is reproducible. *)
let compare_pair a b =
  let c = Int.compare a.src b.src in
  if c <> 0 then c else Int.compare a.dst b.dst

let aggregate demands =
  let sorted = Array.copy demands in
  Array.stable_sort compare_pair sorted;
  (* Stable sort keeps equal keys in occurrence order, so per-pair
     sizes are summed in the same order they appear in the input. *)
  let out = ref [] in
  Array.iter
    (fun d ->
      match !out with
      | hd :: tl when hd.src = d.src && hd.dst = d.dst ->
        out := { hd with size = hd.size +. d.size } :: tl
      | _ -> out := d :: !out)
    sorted;
  Array.of_list (List.rev !out)
