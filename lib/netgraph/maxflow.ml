type flow = { value : float; on_edge : float array }

let eps = 1e-9

(* Residual network: arcs 2e (forward for edge e) and 2e+1 (backward).
   [radj.(v)] lists residual arc ids leaving v. *)
type residual = {
  rcap : float array;
  rto : int array;
  radj : int array array;
}

let build_residual g =
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let rcap = Array.make (2 * m) 0. and rto = Array.make (2 * m) 0 in
  let deg = Array.make n 0 in
  for e = 0 to m - 1 do
    rcap.(2 * e) <- Digraph.cap g e;
    rto.(2 * e) <- Digraph.dst g e;
    rcap.((2 * e) + 1) <- 0.;
    rto.((2 * e) + 1) <- Digraph.src g e;
    deg.(Digraph.src g e) <- deg.(Digraph.src g e) + 1;
    deg.(Digraph.dst g e) <- deg.(Digraph.dst g e) + 1
  done;
  let radj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make n 0 in
  for e = 0 to m - 1 do
    let u = Digraph.src g e and v = Digraph.dst g e in
    radj.(u).(fill.(u)) <- 2 * e;
    fill.(u) <- fill.(u) + 1;
    radj.(v).(fill.(v)) <- (2 * e) + 1;
    fill.(v) <- fill.(v) + 1
  done;
  { rcap; rto; radj }

(* BFS level graph from [s]; returns levels or None if [t] unreachable. *)
let levels r n s t =
  let level = Array.make n (-1) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  level.(s) <- 0;
  queue.(!tail) <- s;
  incr tail;
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    Array.iter
      (fun a ->
        if r.rcap.(a) > eps && level.(r.rto.(a)) < 0 then begin
          level.(r.rto.(a)) <- level.(v) + 1;
          queue.(!tail) <- r.rto.(a);
          incr tail
        end)
      r.radj.(v)
  done;
  if level.(t) < 0 then None else Some level

(* Dinic main loop; returns (value, residual). *)
let dinic g source target =
  if source = target then invalid_arg "Maxflow: source = target";
  let n = Digraph.node_count g in
  let r = build_residual g in
  let iter = Array.make n 0 in
  let total = ref 0. in
  let rec dfs level v f =
    if v = target then f
    else begin
      let pushed = ref 0. in
      while !pushed = 0. && iter.(v) < Array.length r.radj.(v) do
        let a = r.radj.(v).(iter.(v)) in
        let w = r.rto.(a) in
        if r.rcap.(a) > eps && level.(w) = level.(v) + 1 then begin
          let d = dfs level w (min f r.rcap.(a)) in
          if d > eps then begin
            r.rcap.(a) <- r.rcap.(a) -. d;
            r.rcap.(a lxor 1) <- r.rcap.(a lxor 1) +. d;
            pushed := d
          end
          else iter.(v) <- iter.(v) + 1
        end
        else iter.(v) <- iter.(v) + 1
      done;
      !pushed
    end
  in
  let continue = ref true in
  while !continue do
    match levels r n source target with
    | None -> continue := false
    | Some level ->
      Array.fill iter 0 n 0;
      let blocking = ref true in
      while !blocking do
        let d = dfs level source infinity in
        if d > eps then total := !total +. d else blocking := false
      done
  done;
  (!total, r)

let max_flow g ~source ~target =
  let value, r = dinic g source target in
  let m = Digraph.edge_count g in
  let on_edge =
    Array.init m (fun e ->
        let f = Digraph.cap g e -. r.rcap.(2 * e) in
        if f < eps then 0. else f)
  in
  { value; on_edge }

let remove_cycles g fl =
  let n = Digraph.node_count g in
  let f = Array.copy fl.on_edge in
  (* DFS on positive-flow edges; when a back edge closes a cycle, cancel
     the minimum flow along it and rescan.  Each cancellation zeroes at
     least one edge, so at most m rounds. *)
  let find_cycle () =
    let color = Array.make n 0 in
    (* 0 = unseen, 1 = on stack, 2 = done *)
    let parent_edge = Array.make n (-1) in
    let cycle = ref None in
    let rec dfs v =
      color.(v) <- 1;
      Digraph.iter_out g v (fun e ->
          if !cycle = None && f.(e) > eps then begin
            let w = Digraph.dst g e in
            if color.(w) = 0 then begin
              parent_edge.(w) <- e;
              dfs w
            end
            else if color.(w) = 1 then begin
              (* Cycle w -> ... -> v -> w; collect its edges. *)
              let rec collect u acc =
                if u = w then acc
                else
                  let pe = parent_edge.(u) in
                  collect (Digraph.src g pe) (pe :: acc)
              in
              cycle := Some (e :: collect v [])
            end
          end);
      if color.(v) = 1 then color.(v) <- 2
    in
    let v = ref 0 in
    while !cycle = None && !v < n do
      if color.(!v) = 0 then dfs !v;
      incr v
    done;
    !cycle
  in
  let rec cancel () =
    match find_cycle () with
    | None -> ()
    | Some edges ->
      let m = List.fold_left (fun acc e -> min acc f.(e)) infinity edges in
      List.iter
        (fun e ->
          f.(e) <- f.(e) -. m;
          if f.(e) < eps then f.(e) <- 0.)
        edges;
      cancel ()
  in
  cancel ();
  { fl with on_edge = f }

let acyclic_max_flow g ~source ~target =
  remove_cycles g (max_flow g ~source ~target)

let decompose g ~source ~target fl =
  let f = Array.copy fl.on_edge in
  let result = ref [] in
  let rec peel () =
    (* Follow positive flow from the source; the flow is acyclic so this
       terminates at the target (flow conservation). *)
    let rec walk v acc =
      if v = target then Some (List.rev acc)
      else begin
        let next = ref None in
        Digraph.iter_out g v (fun e ->
            if !next = None && f.(e) > eps then next := Some e);
        match !next with
        | None -> None
        | Some e -> walk (Digraph.dst g e) (e :: acc)
      end
    in
    match walk source [] with
    | None -> ()
    | Some path ->
      let amount = List.fold_left (fun acc e -> min acc f.(e)) infinity path in
      List.iter
        (fun e ->
          f.(e) <- f.(e) -. amount;
          if f.(e) < eps then f.(e) <- 0.)
        path;
      result := (amount, path) :: !result;
      peel ()
  in
  peel ();
  List.rev !result
