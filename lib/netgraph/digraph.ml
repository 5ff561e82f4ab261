(* The adjacency is stored in CSR (compressed sparse row) form: one
   row-pointer array of length n+1 and one column-index array of length
   m per direction.  Edge ids in a row appear in ascending order (the
   counting pass scans edges in id order), which fixes the iteration
   order every DAG / unit-flow computation depends on. *)
type t = {
  n : int;
  m : int;
  esrc : int array;
  edst : int array;
  ecap : float array;
  out_row : int array; (* length n+1: out-edges of v are out_col.(out_row.(v)) .. *)
  out_col : int array; (* length m: edge ids, ascending within each row *)
  in_row : int array; (* length n+1 *)
  in_col : int array; (* length m *)
  names : string array;
  by_name : (string, int) Hashtbl.t;
}

(* Counting sort of [key.(e)] for e = 0..m-1 into (row, col).  Scanning
   edge ids in ascending order makes every row ascending too. *)
let csr_of_keys n m key =
  let row = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    row.(key.(e) + 1) <- row.(key.(e) + 1) + 1
  done;
  for v = 1 to n do
    row.(v) <- row.(v) + row.(v - 1)
  done;
  let col = Array.make m 0 in
  let cursor = Array.copy row in
  for e = 0 to m - 1 do
    let v = key.(e) in
    col.(cursor.(v)) <- e;
    cursor.(v) <- cursor.(v) + 1
  done;
  (row, col)

module Builder = struct
  type graph = t

  type t = {
    mutable nodes : int;
    mutable node_names : string list; (* reversed *)
    mutable edges : (int * int * float) list; (* reversed *)
    mutable nedges : int;
    name_tbl : (string, int) Hashtbl.t;
  }

  let create () =
    { nodes = 0; node_names = []; edges = []; nedges = 0;
      name_tbl = Hashtbl.create 16 }

  let add_node b ?name () =
    let id = b.nodes in
    let name = match name with Some s -> s | None -> "n" ^ string_of_int id in
    if Hashtbl.mem b.name_tbl name then
      invalid_arg (Printf.sprintf "Digraph.Builder.add_node: duplicate name %S" name);
    b.nodes <- id + 1;
    b.node_names <- name :: b.node_names;
    Hashtbl.replace b.name_tbl name id;
    id

  let add_named_node b name =
    match Hashtbl.find_opt b.name_tbl name with
    | Some id -> id
    | None -> add_node b ~name ()

  let add_edge b ~src ~dst ~cap =
    if src < 0 || src >= b.nodes then invalid_arg "Digraph.Builder.add_edge: bad src";
    if dst < 0 || dst >= b.nodes then invalid_arg "Digraph.Builder.add_edge: bad dst";
    if src = dst then invalid_arg "Digraph.Builder.add_edge: self-loop";
    if not (cap > 0.) then invalid_arg "Digraph.Builder.add_edge: capacity must be positive";
    let id = b.nedges in
    b.edges <- (src, dst, cap) :: b.edges;
    b.nedges <- id + 1;
    id

  let add_biedge b u v ~cap =
    let fwd = add_edge b ~src:u ~dst:v ~cap in
    let rev = add_edge b ~src:v ~dst:u ~cap in
    (fwd, rev)

  let node_count b = b.nodes

  let build b =
    let n = b.nodes and m = b.nedges in
    let esrc = Array.make m 0 and edst = Array.make m 0 and ecap = Array.make m 0. in
    List.iteri
      (fun i (u, v, c) ->
        let e = m - 1 - i in
        esrc.(e) <- u; edst.(e) <- v; ecap.(e) <- c)
      b.edges;
    let out_row, out_col = csr_of_keys n m esrc in
    let in_row, in_col = csr_of_keys n m edst in
    let names = Array.make n "" in
    List.iteri (fun i nm -> names.(n - 1 - i) <- nm) b.node_names;
    { n; m; esrc; edst; ecap; out_row; out_col; in_row; in_col; names;
      by_name = Hashtbl.copy b.name_tbl }
end

let of_edges ?names ~n edge_list =
  let b = Builder.create () in
  for i = 0 to n - 1 do
    let name = match names with Some a -> Some a.(i) | None -> None in
    ignore (Builder.add_node b ?name ())
  done;
  List.iter (fun (u, v, c) -> ignore (Builder.add_edge b ~src:u ~dst:v ~cap:c)) edge_list;
  Builder.build b

let node_count g = g.n
let edge_count g = g.m
let src g e = g.esrc.(e)
let dst g e = g.edst.(e)
let cap g e = g.ecap.(e)
let node_name g v = g.names.(v)

let node_of_name g name =
  match Hashtbl.find_opt g.by_name name with
  | Some v -> v
  | None -> raise Not_found

(* Borrowed views of the flat arrays, for allocation-free hot loops. *)
let srcs g = g.esrc
let dsts g = g.edst
let caps g = g.ecap
let out_offsets g = g.out_row
let out_index g = g.out_col
let in_offsets g = g.in_row
let in_index g = g.in_col

let out_edges g v = Array.sub g.out_col g.out_row.(v) (g.out_row.(v + 1) - g.out_row.(v))
let in_edges g v = Array.sub g.in_col g.in_row.(v) (g.in_row.(v + 1) - g.in_row.(v))
let out_degree g v = g.out_row.(v + 1) - g.out_row.(v)

let iter_out g v f =
  for i = g.out_row.(v) to g.out_row.(v + 1) - 1 do
    f g.out_col.(i)
  done

let iter_in g v f =
  for i = g.in_row.(v) to g.in_row.(v + 1) - 1 do
    f g.in_col.(i)
  done

let find_edge g ~src ~dst =
  let rec scan i =
    if i >= g.out_row.(src + 1) then None
    else if g.edst.(g.out_col.(i)) = dst then Some g.out_col.(i)
    else scan (i + 1)
  in
  scan g.out_row.(src)

let edges g =
  List.init g.m (fun e -> (g.esrc.(e), g.edst.(e), g.ecap.(e)))

let with_capacities g caps =
  if Array.length caps <> g.m then
    invalid_arg "Digraph.with_capacities: length mismatch";
  Array.iter (fun c -> if not (c > 0.) then
    invalid_arg "Digraph.with_capacities: capacity must be positive") caps;
  { g with ecap = Array.copy caps }

let reverse g =
  { g with esrc = g.edst; edst = g.esrc;
    out_row = g.in_row; out_col = g.in_col;
    in_row = g.out_row; in_col = g.out_col }

let max_capacity g = Array.fold_left max neg_infinity g.ecap
