(* A deliberately naive ECMP reference for differential tests.

   Dense Floyd–Warshall distances plus an even split per (src, dst)
   pair, computed from the edge list alone: no CSR rows, shortest-path
   DAG caches, pools, incremental repair or per-destination sweeps.  It
   shares no code with [Engine.Evaluator], so agreement between the two
   is evidence rather than a tautology.  Quadratic and cubic loops are
   fine here: the test instances have tens of nodes.

   The one rule it must share with the engine is the definition of an
   ECMP tie: edge (u, v) is on a shortest path to t when
   |w(u,v) + d(v,t) - d(u,t)| <= 1e-9 * (1 + |d(u,t)|). *)

open Netgraph

exception Unroutable of int * int

type t = {
  n : int;
  edges : (int * int * float) array; (* (src, dst, weight) per edge id *)
  dist : float array array; (* dist.(u).(v): shortest u -> v distance *)
}

let tie_eps = 1e-9

(* An infinite weight is a failed link: it never relaxes a distance and
   is never tight. *)
let make g w =
  let n = Digraph.node_count g in
  let edges =
    Array.init (Digraph.edge_count g) (fun e ->
        (Digraph.src g e, Digraph.dst g e, w.(e)))
  in
  let dist = Array.make_matrix n n infinity in
  for v = 0 to n - 1 do
    dist.(v).(v) <- 0.
  done;
  Array.iter (fun (u, v, x) -> if x < dist.(u).(v) then dist.(u).(v) <- x) edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = dist.(i).(k) +. dist.(k).(j) in
        if via < dist.(i).(j) then dist.(i).(j) <- via
      done
    done
  done;
  { n; edges; dist }

let tight o ~dst (u, v, x) =
  let du = o.dist.(u).(dst) and dv = o.dist.(v).(dst) in
  x < infinity && du < infinity && dv < infinity
  && abs_float (x +. dv -. du) <= tie_eps *. (1. +. abs_float du)

(* Routes [size] from [src] to [dst], adding the edge flows into [acc].
   Nodes are visited farthest from [dst] first, so each node's inflow is
   complete before it is split evenly over its tight out-edges. *)
let add_pair o ~src ~dst ~size acc =
  if src <> dst then begin
    if o.dist.(src).(dst) = infinity then raise (Unroutable (src, dst));
    let flow = Array.make o.n 0. in
    flow.(src) <- size;
    let far_first =
      List.sort
        (fun a b -> compare o.dist.(b).(dst) o.dist.(a).(dst))
        (List.init o.n Fun.id)
    in
    List.iter
      (fun u ->
        if u <> dst && flow.(u) > 0. then begin
          let out =
            List.filter
              (fun e ->
                let a, _, _ = o.edges.(e) in
                a = u && tight o ~dst o.edges.(e))
              (List.init (Array.length o.edges) Fun.id)
          in
          let share = flow.(u) /. float_of_int (List.length out) in
          List.iter
            (fun e ->
              let _, v, _ = o.edges.(e) in
              acc.(e) <- acc.(e) +. share;
              flow.(v) <- flow.(v) +. share)
            out
        end)
      far_first
  end

(* The hops src -> w1 -> ... -> dst of a waypointed demand, dropping
   the empty hops a repeated or endpoint waypoint creates. *)
let segments ~src ~dst wps =
  let rec pairs = function
    | a :: (b :: _ as rest) -> if a = b then pairs rest else (a, b) :: pairs rest
    | _ -> []
  in
  pairs ((src :: wps) @ [ dst ])

(* Aggregate edge loads of [demands], each routed through its waypoint
   list when [waypoints] is given. *)
let loads ?waypoints o demands =
  let acc = Array.make (Array.length o.edges) 0. in
  Array.iteri
    (fun i { Demand.src; dst; size } ->
      let wps = match waypoints with Some w -> w.(i) | None -> [] in
      List.iter
        (fun (a, b) -> add_pair o ~src:a ~dst:b ~size acc)
        (segments ~src ~dst wps))
    demands;
  acc
