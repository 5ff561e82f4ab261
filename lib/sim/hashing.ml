(* SplitMix64 finalizer: a strong 64-bit mixing function. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let next_hop_index ~flow ~node ~salt ~choices =
  if choices <= 0 then invalid_arg "Hashing.next_hop_index: no choices";
  let open Int64 in
  let key =
    add
      (mul (of_int flow) 0x9e3779b97f4a7c15L)
      (add (mul (of_int node) 0xd1b54a32d192ed03L) (of_int salt))
  in
  let h = mix64 key in
  to_int (rem (logand h 0x7fffffffffffffffL) (of_int choices))
