(** The paper's hand-constructed TE instances (§3, Figures 1–3).

    Each builder returns the network, the single source-target demand
    list, and the joint weight/waypoint setting constructed in the
    corresponding lemma (which achieves MLU = 1 = OPT on instances
    1–4).  The [m] parameter follows the paper: instance 1 has
    n = m + 1 nodes, instance 2 has n = m + 2, instances 3 and 4 have
    n = 2m, instance 5 has n = 4m + 2. *)

type t = {
  name : string;
  network : Te.Network.t;
  source : int;
  target : int;
  joint_weights : Te.Weights.t;  (** the lemma's weight setting *)
  joint_waypoints : Te.Segments.setting;  (** the lemma's waypoints *)
  lwo_weights : Te.Weights.t option;
      (** a weight setting optimal for LWO, where the paper gives one *)
  predicted_joint_mlu : float;  (** what the lemma proves (1 on 1–4) *)
  predicted_lwo_mlu : float option;  (** the lemma's LWO value *)
}

val instance1 : m:int -> t
(** Figure 1: the Ω(n) gap instance (Lemmas 3.5–3.7).  [m >= 2]. *)

val instance2 : m:int -> t
(** Figure 2a: harmonic parallel paths; max ES-flow 1 (Lemma 3.10).
    [m >= 1]. *)

val instance3 : m:int -> t
(** Figure 2b: the Ω(n log n) LWO-gap instance (Lemmas 3.11–3.12).
    [m >= 2]. *)

val instance4 : m:int -> t
(** Figure 2c: the Ω(n log n) WPO-gap instance (Lemmas 3.13–3.14).
    [m >= 2]. *)

val instance5 : m:int -> t
(** The concatenation of instances 3 and 4 (Theorem 3.15).  The joint
    setting uses two waypoints in each half. *)

val harmonic : int -> float
(** H_m = 1 + 1/2 + ... + 1/m. *)

val fig3a : unit -> Netgraph.Digraph.t * int * int
(** Figure 3 left example: (graph, s, t); capacities equal usable
    capacities. *)

val fig3b : unit -> Netgraph.Digraph.t * int * int
(** Figure 3 right example. *)
