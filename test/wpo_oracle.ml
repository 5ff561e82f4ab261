(* A deliberately dense GreedyWPO reference for differential tests.

   It re-runs the greedy the straightforward way: for every candidate it
   copies the whole load vector, adds both segments with
   [Evaluator.add_unit] and scans all m edges for the MLU, one candidate
   after another on one domain, then keeps the first of the minima.  It
   shares no code with [Greedy_wpo]'s scan (no chunks, no pool, no
   residual bound, no [segment_peak]), only the unit rows, so a
   bit-equal result checks that scoring a candidate from its own rows is
   exact.  It scores every candidate of every visit, even where the
   greedy's exact scan skip applies: it computes its own dense residual
   MLU per visit, counts in [scanned] only the candidates of visits the
   skip leaves (residual below [u_min -. 1e-12]), and on every skipped
   visit records whether its own argmin would have passed the strict
   improvement test — [skipped_improving] must stay 0.  The instances
   have tens of nodes; O(m) per candidate is fine. *)

open Netgraph
open Te
module Ev = Engine.Evaluator

(* Visit and candidate counts, shared by both greedies. *)
type counts = {
  mutable scored : int; (* every routable candidate of every visit *)
  mutable scanned : int; (* those of visits the scan skip leaves *)
  mutable scanned_visits : int;
  mutable skipped_visits : int;
  mutable skipped_improving : int; (* skipped visits whose argmin improves *)
}

type single = {
  waypoints : int option array;
  mlu : float;
  counts : counts;
}

type multi = {
  setting : int list array;
  multi_mlu : float;
  round_mlu : float list;
  multi_counts : counts;
}

let mlu g loads =
  let u = ref 0. in
  for e = 0 to Digraph.edge_count g - 1 do
    let r = loads.(e) /. Digraph.cap g e in
    if r > !u then u := r
  done;
  !u

(* The greedy's visiting order, [Greedy_wpo.Desc]. *)
let desc demands =
  let idx = Array.init (Array.length demands) Fun.id in
  Array.sort
    (fun a b -> compare demands.(b).Network.size demands.(a).Network.size)
    idx;
  idx

let setup g w demands =
  let ev = Ev.create g w in
  Ev.set_commodities ev demands;
  (ev, Array.copy (Ev.loads ev))

let add ev loads segs scale =
  List.iter (fun (a, b) -> Ev.add_unit ev ~src:a ~dst:b ~scale ~into:loads) segs

let counts () =
  { scored = 0; scanned = 0; scanned_visits = 0; skipped_visits = 0;
    skipped_improving = 0 }

(* The first candidate of minimal MLU over [cands], each a segment list
   loaded with [size] on top of [loads] (the demand removed); unroutable
   candidates are skipped and the rest counted.  On a visit whose dense
   residual MLU already fails the strict test against [u_min], the
   argmin is still computed and returned, and whether it improves is
   recorded in [skipped_improving]. *)
let best ev g ~loads ~size ~u_min cnt cands =
  let skip = mlu g loads >= u_min -. 1e-12 in
  let buf = Array.make (Array.length loads) 0. in
  let best = ref None and nev = ref 0 in
  List.iter
    (fun (c, segs) ->
      Array.blit loads 0 buf 0 (Array.length loads);
      match add ev buf segs size with
      | exception Ev.Unroutable _ -> ()
      | () -> (
        incr nev;
        let u = mlu g buf in
        match !best with
        | Some (bu, _) when bu <= u -> ()
        | _ -> best := Some (u, c)))
    cands;
  cnt.scored <- cnt.scored + !nev;
  if skip then begin
    cnt.skipped_visits <- cnt.skipped_visits + 1;
    (match !best with
    | Some (u, _) when u < u_min -. 1e-12 ->
      cnt.skipped_improving <- cnt.skipped_improving + 1
    | _ -> ())
  end
  else begin
    cnt.scanned_visits <- cnt.scanned_visits + 1;
    cnt.scanned <- cnt.scanned + !nev
  end;
  !best

let others n a b = List.filter (fun x -> x <> a && x <> b) (List.init n Fun.id)

let optimize ~passes g w demands =
  let n = Digraph.node_count g in
  let ev, loads = setup g w demands in
  let wps = Array.make (Array.length demands) None in
  let segs i = function
    | None -> [ (demands.(i).Network.src, demands.(i).Network.dst) ]
    | Some x -> [ (demands.(i).Network.src, x); (x, demands.(i).Network.dst) ]
  in
  let u_min = ref (mlu g loads) and cnt = counts () in
  for pass = 1 to passes do
    Array.iter
      (fun i ->
        let { Network.src; dst; size } = demands.(i) in
        add ev loads (segs i wps.(i)) (-.size);
        let ways =
          List.filter_map
            (fun x -> if Some x = wps.(i) then None else Some (Some x))
            (others n src dst)
        in
        let cands = if pass > 1 && wps.(i) <> None then None :: ways else ways in
        (match
           best ev g ~loads ~size ~u_min:!u_min cnt
             (List.map (fun c -> (c, segs i c)) cands)
         with
        | Some (u, c) when u < !u_min -. 1e-12 -> wps.(i) <- c
        | _ -> ());
        add ev loads (segs i wps.(i)) size;
        u_min := mlu g loads)
      (desc demands)
  done;
  { waypoints = wps; mlu = mlu g loads; counts = cnt }

let optimize_multi ~rounds g w demands =
  let n = Digraph.node_count g in
  let ev, loads = setup g w demands in
  let setting = Array.make (Array.length demands) [] in
  let u_min = ref (mlu g loads) and cnt = counts () and round_mlu = ref [] in
  for _ = 1 to rounds do
    Array.iter
      (fun i ->
        let { Network.src; dst; size } = demands.(i) in
        let a = List.fold_left (fun _ x -> x) src setting.(i) in
        if a <> dst then begin
          add ev loads [ (a, dst) ] (-.size);
          match
            best ev g ~loads ~size ~u_min:!u_min cnt
              (List.map (fun x -> (x, [ (a, x); (x, dst) ])) (others n a dst))
          with
          | Some (u, x) when u < !u_min -. 1e-12 ->
            setting.(i) <- setting.(i) @ [ x ];
            u_min := u;
            add ev loads [ (a, x); (x, dst) ] size
          | _ -> add ev loads [ (a, dst) ] size
        end)
      (desc demands);
    round_mlu := mlu g loads :: !round_mlu
  done;
  { setting; multi_mlu = mlu g loads; round_mlu = List.rev !round_mlu;
    multi_counts = cnt }
