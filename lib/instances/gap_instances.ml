open Netgraph
open Te

type t = {
  name : string;
  network : Network.t;
  source : int;
  target : int;
  joint_weights : Weights.t;
  joint_waypoints : Segments.setting;
  lwo_weights : Weights.t option;
  predicted_joint_mlu : float;
  predicted_lwo_mlu : float option;
}

let harmonic m =
  let acc = ref 0. in
  for k = 1 to m do
    acc := !acc +. (1. /. float_of_int k)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* TE-Instance 1 (Figure 1)                                            *)
(* ------------------------------------------------------------------ *)

let instance1 ~m =
  if m < 2 then invalid_arg "instance1: m >= 2 required";
  let fm = float_of_int m in
  let b = Digraph.Builder.create () in
  (* Node 0 = s = v_1; nodes 1..m-1 = v_2..v_m; node m = t. *)
  let v = Array.init m (fun i -> Digraph.Builder.add_named_node b (Printf.sprintf "v%d" (i + 1))) in
  let t = Digraph.Builder.add_named_node b "t" in
  let horiz = Array.make (m - 1) 0 in
  for i = 0 to m - 2 do
    horiz.(i) <- Digraph.Builder.add_edge b ~src:v.(i) ~dst:v.(i + 1) ~cap:fm
  done;
  let vert_down = Array.make m 0 and vert_up = Array.make m 0 in
  for i = 0 to m - 1 do
    vert_down.(i) <- Digraph.Builder.add_edge b ~src:v.(i) ~dst:t ~cap:1.;
    vert_up.(i) <- Digraph.Builder.add_edge b ~src:t ~dst:v.(i) ~cap:1.
  done;
  let g = Digraph.Builder.build b in
  let demands = Array.init m (fun _ -> Network.demand v.(0) t 1.) in
  (* Lemma 3.5: weight m on every vertical link, 1 on horizontals;
     waypoint v_i for the i-th demand. *)
  let jw = Array.make (Digraph.edge_count g) 1. in
  Array.iter (fun e -> jw.(e) <- fm) vert_down;
  Array.iter (fun e -> jw.(e) <- fm) vert_up;
  let jwp = Array.init m (fun i -> if i = 0 then [] else [ v.(i) ]) in
  (* Lemma 3.6: weight 2 on (s, t), 1 elsewhere is LWO-optimal. *)
  let lwo_w = Array.make (Digraph.edge_count g) 1. in
  lwo_w.(vert_down.(0)) <- 2.;
  {
    name = Printf.sprintf "TE-Instance-1(m=%d)" m;
    network = Network.make g demands;
    source = v.(0);
    target = t;
    joint_weights = jw;
    joint_waypoints = jwp;
    lwo_weights = Some lwo_w;
    predicted_joint_mlu = 1.;
    predicted_lwo_mlu = Some (fm /. 2.);
  }

(* ------------------------------------------------------------------ *)
(* TE-Instance 2 (Figure 2a)                                           *)
(* ------------------------------------------------------------------ *)

let instance2 ~m =
  if m < 1 then invalid_arg "instance2: m >= 1 required";
  let b = Digraph.Builder.create () in
  let s = Digraph.Builder.add_named_node b "s" in
  let w =
    Array.init m (fun j -> Digraph.Builder.add_named_node b (Printf.sprintf "w%d" (j + 1)))
  in
  let t = Digraph.Builder.add_named_node b "t" in
  for j = 0 to m - 1 do
    let c = 1. /. float_of_int (j + 1) in
    ignore (Digraph.Builder.add_edge b ~src:s ~dst:w.(j) ~cap:c);
    ignore (Digraph.Builder.add_edge b ~src:w.(j) ~dst:t ~cap:c)
  done;
  let g = Digraph.Builder.build b in
  let demands =
    Array.init m (fun k -> Network.demand s t (1. /. float_of_int (k + 1)))
  in
  (* With one waypoint w_k for the k-th demand and weights that make
     each (s, w_k, t) path the unique shortest to its waypoint, Joint
     routes the size-1/k demand on the capacity-1/k path. *)
  let jw = Array.make (Digraph.edge_count g) 1. in
  let jwp = Array.init m (fun k -> [ w.(k) ]) in
  {
    name = Printf.sprintf "TE-Instance-2(m=%d)" m;
    network = Network.make g demands;
    source = s;
    target = t;
    joint_weights = jw;
    joint_waypoints = jwp;
    lwo_weights = None;
    predicted_joint_mlu = 1.;
    predicted_lwo_mlu = Some (harmonic m);
    (* max ES-flow is 1 (Lemma 3.10); demand H_m gives MLU = H_m. *)
  }

(* ------------------------------------------------------------------ *)
(* TE-Instances 3 and 4 (Figures 2b and 2c)                            *)
(* ------------------------------------------------------------------ *)

(* Shared bilayer builder: top nodes v_1..v_m (v_1 = s), bottom nodes
   w_1..w_m (w_m = t), directed horizontals of capacity [d] on both
   layers, and bi-directed cross links (v_i, w_j) with capacity
   [cross_cap i j]. *)
let bilayer ~m ~d ~cross_cap =
  let b = Digraph.Builder.create () in
  let v =
    Array.init m (fun i -> Digraph.Builder.add_named_node b (Printf.sprintf "v%d" (i + 1)))
  in
  let w =
    Array.init m (fun j -> Digraph.Builder.add_named_node b (Printf.sprintf "w%d" (j + 1)))
  in
  let top = Array.make (max 0 (m - 1)) 0 and bottom = Array.make (max 0 (m - 1)) 0 in
  for i = 0 to m - 2 do
    top.(i) <- Digraph.Builder.add_edge b ~src:v.(i) ~dst:v.(i + 1) ~cap:d;
    bottom.(i) <- Digraph.Builder.add_edge b ~src:w.(i) ~dst:w.(i + 1) ~cap:d
  done;
  let cross = Array.make_matrix m m 0 and cross_rev = Array.make_matrix m m 0 in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      let c = cross_cap i j in
      cross.(i).(j) <- Digraph.Builder.add_edge b ~src:v.(i) ~dst:w.(j) ~cap:c;
      cross_rev.(i).(j) <- Digraph.Builder.add_edge b ~src:w.(j) ~dst:v.(i) ~cap:c
    done
  done;
  let g = Digraph.Builder.build b in
  (g, v, w, cross, cross_rev)

(* The m^2 demands of instances 3/4: m identical harmonic sets.  The
   demand indexed (i, j) gets size [size i j] and waypoints
   [v_i; w_j] (Lemmas 3.11 / 3.13). *)
let bilayer_demands ~m ~v ~w ~t ~size =
  let demands = Array.make (m * m) (Network.demand v.(1) t 1.) in
  let wps = Array.make (m * m) [] in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      let k = (i * m) + j in
      demands.(k) <- Network.demand v.(0) t (size i j);
      wps.(k) <- [ v.(i); w.(j) ]
    done
  done;
  (demands, wps)

let cross_weights g ~m ~cross ~cross_rev =
  let jw = Array.make (Digraph.edge_count g) 1. in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      jw.(cross.(i).(j)) <- float_of_int m;
      jw.(cross_rev.(i).(j)) <- float_of_int m
    done
  done;
  jw

let instance3 ~m =
  if m < 2 then invalid_arg "instance3: m >= 2 required";
  let d = float_of_int m *. harmonic m in
  (* Every link into w_j has capacity 1/j. *)
  let cross_cap _i j = 1. /. float_of_int (j + 1) in
  let g, v, w, cross, cross_rev = bilayer ~m ~d ~cross_cap in
  let t = w.(m - 1) in
  let size _i j = 1. /. float_of_int (j + 1) in
  let demands, wps = bilayer_demands ~m ~v ~w ~t ~size in
  {
    name = Printf.sprintf "TE-Instance-3(m=%d)" m;
    network = Network.make g demands;
    source = v.(0);
    target = t;
    joint_weights = cross_weights g ~m ~cross ~cross_rev;
    joint_waypoints = wps;
    lwo_weights = None;
    predicted_joint_mlu = 1.;
    predicted_lwo_mlu = Some (d /. 2.);
    (* Lemma 3.12: the max ES-flow is 2. *)
  }

let instance4 ~m =
  if m < 2 then invalid_arg "instance4: m >= 2 required";
  let d = float_of_int m *. harmonic m in
  (* Every link out of v_i has capacity 1/(m - i + 1); with 0-based i:
     1/(m - i). *)
  let cross_cap i _j = 1. /. float_of_int (m - i) in
  let g, v, w, cross, cross_rev = bilayer ~m ~d ~cross_cap in
  let t = w.(m - 1) in
  let size i _j = 1. /. float_of_int (m - i) in
  let demands, wps = bilayer_demands ~m ~v ~w ~t ~size in
  {
    name = Printf.sprintf "TE-Instance-4(m=%d)" m;
    network = Network.make g demands;
    source = v.(0);
    target = t;
    joint_weights = cross_weights g ~m ~cross ~cross_rev;
    joint_waypoints = wps;
    lwo_weights = None;
    predicted_joint_mlu = 1.;
    predicted_lwo_mlu = None;
  }

let instance5 ~m =
  if m < 2 then invalid_arg "instance5: m >= 2 required";
  let i3 = instance3 ~m and i4 = instance4 ~m in
  let g3 = i3.network.Network.graph and g4 = i4.network.Network.graph in
  let d = float_of_int m *. harmonic m in
  let n3 = Digraph.node_count g3 in
  let b = Digraph.Builder.create () in
  for v = 0 to n3 - 1 do
    ignore (Digraph.Builder.add_named_node b ("a." ^ Digraph.node_name g3 v))
  done;
  for v = 0 to Digraph.node_count g4 - 1 do
    ignore (Digraph.Builder.add_named_node b ("b." ^ Digraph.node_name g4 v))
  done;
  List.iter
    (fun (u, v, c) -> ignore (Digraph.Builder.add_edge b ~src:u ~dst:v ~cap:c))
    (Digraph.edges g3);
  List.iter
    (fun (u, v, c) ->
      ignore (Digraph.Builder.add_edge b ~src:(n3 + u) ~dst:(n3 + v) ~cap:c))
    (Digraph.edges g4);
  ignore (Digraph.Builder.add_edge b ~src:i3.target ~dst:(n3 + i4.source) ~cap:d);
  let g = Digraph.Builder.build b in
  let source = i3.source and target = n3 + i4.target in
  let k = Array.length i3.network.Network.demands in
  let demands =
    Array.init k (fun i ->
        { (i3.network.Network.demands.(i)) with Network.src = source; dst = target })
  in
  (* Joint setting: both halves' lemma weights, and the concatenated
     waypoint lists (two per half). *)
  let m3 = Digraph.edge_count g3 in
  let jw =
    Array.init (Digraph.edge_count g)
      (fun e ->
        if e < m3 then i3.joint_weights.(e)
        else if e < m3 + Digraph.edge_count g4 then i4.joint_weights.(e - m3)
        else 1.)
  in
  (* Demand (i, j) has size 1/(j+1); in the instance-4 half its cross
     link must have that capacity, i.e. the v-layer index m-1-j, and the
     m same-size copies (one per i) spread over distinct w-layer nodes. *)
  let jwp =
    Array.init k (fun idx ->
        let i = idx / m and j = idx mod m in
        let vb = n3 + (m - 1 - j) and wb = n3 + m + i in
        i3.joint_waypoints.(idx) @ [ vb; wb ])
  in
  {
    name = Printf.sprintf "TE-Instance-5(m=%d)" m;
    network = Network.make g demands;
    source;
    target;
    joint_weights = jw;
    joint_waypoints = jwp;
    lwo_weights = None;
    predicted_joint_mlu = 1.;
    predicted_lwo_mlu = None;
  }

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)
(* ------------------------------------------------------------------ *)

let fig3a () =
  let b = Digraph.Builder.create () in
  let s = Digraph.Builder.add_named_node b "s" in
  let v1 = Digraph.Builder.add_named_node b "v1" in
  let v2 = Digraph.Builder.add_named_node b "v2" in
  let v3 = Digraph.Builder.add_named_node b "v3" in
  let t = Digraph.Builder.add_named_node b "t" in
  ignore (Digraph.Builder.add_edge b ~src:s ~dst:v1 ~cap:0.5);
  ignore (Digraph.Builder.add_edge b ~src:s ~dst:v2 ~cap:0.5);
  ignore (Digraph.Builder.add_edge b ~src:s ~dst:v3 ~cap:0.75);
  ignore (Digraph.Builder.add_edge b ~src:v1 ~dst:t ~cap:0.5);
  (* v2 has two parallel links of capacity 1/4. *)
  ignore (Digraph.Builder.add_edge b ~src:v2 ~dst:t ~cap:0.25);
  ignore (Digraph.Builder.add_edge b ~src:v2 ~dst:t ~cap:0.25);
  ignore (Digraph.Builder.add_edge b ~src:v3 ~dst:t ~cap:0.75);
  (Digraph.Builder.build b, s, t)

let fig3b () =
  let b = Digraph.Builder.create () in
  let s = Digraph.Builder.add_named_node b "s" in
  let v1 = Digraph.Builder.add_named_node b "v1" in
  let v2 = Digraph.Builder.add_named_node b "v2" in
  let v3 = Digraph.Builder.add_named_node b "v3" in
  let v4 = Digraph.Builder.add_named_node b "v4" in
  let t = Digraph.Builder.add_named_node b "t" in
  ignore (Digraph.Builder.add_edge b ~src:s ~dst:v1 ~cap:1.);
  ignore (Digraph.Builder.add_edge b ~src:s ~dst:v2 ~cap:0.5);
  ignore (Digraph.Builder.add_edge b ~src:v1 ~dst:v3 ~cap:(1. /. 6.));
  ignore (Digraph.Builder.add_edge b ~src:v1 ~dst:v4 ~cap:(1. /. 3.));
  ignore (Digraph.Builder.add_edge b ~src:v2 ~dst:v3 ~cap:(1. /. 3.));
  ignore (Digraph.Builder.add_edge b ~src:v2 ~dst:v4 ~cap:(2. /. 3.));
  ignore (Digraph.Builder.add_edge b ~src:v3 ~dst:t ~cap:0.5);
  ignore (Digraph.Builder.add_edge b ~src:v4 ~dst:t ~cap:1.);
  (Digraph.Builder.build b, s, t)
