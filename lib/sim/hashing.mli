(** Deterministic per-flow hashing, modelling the Layer-4 hash that real
    ECMP routers use to pin a flow to one next hop
    (net.ipv6.fib_multipath_hash_policy=1 in the paper's Nanonet
    setup). *)

val next_hop_index : flow:int -> node:int -> salt:int -> choices:int -> int
(** Deterministic choice in [0, choices): which of a node's equal-cost
    next hops this flow takes.  Different salts model different hash
    seeds across experiment runs. *)
