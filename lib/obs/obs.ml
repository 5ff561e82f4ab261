(* Structured tracing and the run context.  See obs.mli for the design
   contract; the load-bearing invariant throughout is determinism:
   exported span streams and counter dumps must be pure functions of
   the computation,
   never of worker scheduling, so fan-out work records into detached
   child buffers grafted back under deterministic keys. *)

module Mono = Engine.Mono
module Stats = Engine.Stats

module Attr = struct
  type value =
    | Int of int | Float of float | Str of string | Bool of bool
    | List of value list

  type t = string * value

  let int k v = (k, Int v)

  let float k v = (k, Float v)

  let str k v = (k, Str v)

  let bool k v = (k, Bool v)
end

(* JSON rendering shared by every writer in this file. *)
module Json = struct
  let str s =
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b

  let float f =
    if Float.is_nan f then "null"
    else if f = infinity then "1e999"
    else if f = neg_infinity then "-1e999"
    else Printf.sprintf "%.17g" f

  (* An object of pre-rendered values, fields in list order. *)
  let obj fields =
    let b = Buffer.create 128 in
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (str k);
        Buffer.add_string b ": ";
        Buffer.add_string b v)
      fields;
    Buffer.add_char b '}';
    Buffer.contents b

  let list items = "[" ^ String.concat ", " items ^ "]"

  let rec value = function
    | Attr.Int i -> string_of_int i
    | Attr.Float f -> float f
    | Attr.Str s -> str s
    | Attr.Bool b -> if b then "true" else "false"
    | Attr.List vs -> list (List.map value vs)

  let record attrs = obj (List.map (fun (k, v) -> (k, value v)) attrs)
end

module Span = struct
  type t = {
    id : int;
    parent : int;
    depth : int;
    name : string;
    t0 : float;
    dur : float;
    attrs : Attr.t list;
  }
end

module Tracer = struct
  (* Internal span representation: [parent]/[depth] are buffer-local;
     the export renumbers them across grafted children. *)
  type srec = {
    s_name : string;
    s_parent : int;  (* index in the same buffer, -1 = buffer root *)
    s_depth : int;
    s_t0 : float;
    mutable s_dur : float;  (* -1. while open *)
    mutable s_attrs : Attr.t list;  (* reversed insertion order *)
  }

  type buf = {
    cap : int;
    engine_detail : bool;
    epoch : float;  (* shared with children: t0s are comparable *)
    mutable arr : srec array;
    mutable len : int;
    mutable stack : int list;  (* open span indices, innermost first *)
    mutable dropped : int;
    mutable misnest : int;
    (* grafted children, newest first: (attach index | -1, key, child) *)
    mutable kids : (int * int * buf) list;
  }

  type t = Noop | Buf of buf

  let noop = Noop

  let dummy =
    { s_name = ""; s_parent = -1; s_depth = 0; s_t0 = 0.; s_dur = 0.;
      s_attrs = [] }

  let mk_buf ~cap ~engine_detail ~epoch =
    { cap; engine_detail; epoch; arr = Array.make 64 dummy; len = 0;
      stack = []; dropped = 0; misnest = 0; kids = [] }

  let create ?(cap = 65536) ?(engine_detail = false) () =
    Buf (mk_buf ~cap ~engine_detail ~epoch:(Mono.now ()))

  let enabled = function Noop -> false | Buf _ -> true

  let start t name =
    match t with
    | Noop -> -1
    | Buf b ->
      if b.len >= b.cap then begin
        b.dropped <- b.dropped + 1;
        -1
      end
      else begin
        if b.len = Array.length b.arr then begin
          let bigger =
            Array.make (min b.cap (2 * Array.length b.arr)) dummy
          in
          Array.blit b.arr 0 bigger 0 b.len;
          b.arr <- bigger
        end;
        let s_parent, s_depth =
          match b.stack with
          | [] -> (-1, 0)
          | i :: _ -> (i, b.arr.(i).s_depth + 1)
        in
        let s =
          { s_name = name; s_parent; s_depth; s_t0 = Mono.now () -. b.epoch;
            s_dur = -1.; s_attrs = [] }
        in
        b.arr.(b.len) <- s;
        b.stack <- b.len :: b.stack;
        b.len <- b.len + 1;
        b.len - 1
      end

  let finish t tok =
    match t with
    | Noop -> ()
    | Buf b ->
      if tok >= 0 && tok < b.len then begin
        let now = Mono.now () -. b.epoch in
        let s = b.arr.(tok) in
        if s.s_dur < 0. then s.s_dur <- now -. s.s_t0;
        if List.mem tok b.stack then begin
          (* Force-close anything opened after [tok] and left open: the
             trace stays a forest even under misuse. *)
          let rec pop = function
            | [] -> []
            | i :: rest ->
              if i = tok then rest
              else begin
                b.misnest <- b.misnest + 1;
                let a = b.arr.(i) in
                if a.s_dur < 0. then a.s_dur <- now -. a.s_t0;
                pop rest
              end
          in
          b.stack <- pop b.stack
        end
        else b.misnest <- b.misnest + 1
      end

  let attr t tok a =
    match t with
    | Noop -> ()
    | Buf b ->
      if tok >= 0 && tok < b.len then
        b.arr.(tok).s_attrs <- a :: b.arr.(tok).s_attrs

  let with_span t ?(attrs = []) name f =
    match t with
    | Noop -> f ()
    | Buf _ -> (
      let tok = start t name in
      List.iter (fun a -> attr t tok a) attrs;
      match f () with
      | v ->
        finish t tok;
        v
      | exception e ->
        finish t tok;
        raise e)

  let instant t ?(attrs = []) name =
    match t with
    | Noop -> ()
    | Buf _ ->
      let tok = start t name in
      List.iter (fun a -> attr t tok a) attrs;
      finish t tok

  let child = function
    | Noop -> Noop
    | Buf b ->
      Buf (mk_buf ~cap:b.cap ~engine_detail:b.engine_detail ~epoch:b.epoch)

  let graft t ~key c =
    match (t, c) with
    | Buf b, Buf cb ->
      let attach = match b.stack with [] -> -1 | i :: _ -> i in
      b.kids <- (attach, key, cb) :: b.kids
    | _ -> ()

  let probe t =
    match t with
    | Buf b when b.engine_detail ->
      {
        Engine.Probe.enabled = true;
        start = (fun name -> start t name);
        finish = (fun tok -> finish t tok);
      }
    | _ -> Engine.Probe.null

  let lp_probe t =
    match t with
    | Buf _ ->
      {
        Linprog.Simplex.enabled = true;
        start = (fun name -> start t name);
        finish = (fun tok -> finish t tok);
      }
    | Noop -> Linprog.Simplex.null_probe

  let rec fold_bufs f acc = function
    | Noop -> acc
    | Buf b ->
      let acc = f acc b in
      List.fold_left (fun acc (_, _, cb) -> fold_bufs f acc (Buf cb)) acc
        b.kids

  let span_count t = fold_bufs (fun acc b -> acc + b.len) 0 t

  let dropped t = fold_bufs (fun acc b -> acc + b.dropped) 0 t

  let misnested t = fold_bufs (fun acc b -> acc + b.misnest) 0 t

  (* Deterministic flatten: a buffer's own spans in recording order,
     then its grafted children ordered by (attachment point, key,
     graft order), depth-shifted under their attachment span. *)
  let spans t =
    let out = ref [] in
    let counter = ref 0 in
    let rec emit ~parent_id ~depth_shift b =
      let idmap = Array.make (max 1 b.len) (-1) in
      for i = 0 to b.len - 1 do
        let s = b.arr.(i) in
        let id = !counter in
        incr counter;
        idmap.(i) <- id;
        let parent =
          if s.s_parent = -1 then parent_id else idmap.(s.s_parent)
        in
        out :=
          {
            Span.id;
            parent;
            depth = s.s_depth + depth_shift;
            name = s.s_name;
            t0 = s.s_t0;
            dur = s.s_dur;
            attrs = List.rev s.s_attrs;
          }
          :: !out
      done;
      let kids =
        List.stable_sort
          (fun (a1, k1, _) (a2, k2, _) ->
            let c = compare a1 a2 in
            if c <> 0 then c else compare k1 k2)
          (List.rev b.kids)
      in
      List.iter
        (fun (attach, _key, cb) ->
          let pid, dsh =
            if attach = -1 then (parent_id, depth_shift)
            else (idmap.(attach), b.arr.(attach).s_depth + depth_shift + 1)
          in
          emit ~parent_id:pid ~depth_shift:dsh cb)
        kids
    in
    (match t with Noop -> () | Buf b -> emit ~parent_id:(-1) ~depth_shift:0 b);
    List.rev !out

  (* Per root-span name, the summed seconds (unfinished spans count
     zero), sorted by name. *)
  let phase_totals t =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (s : Span.t) ->
        if s.depth = 0 then begin
          let d = Option.value (Hashtbl.find_opt tbl s.name) ~default:0. in
          Hashtbl.replace tbl s.name (d +. Float.max 0. s.dur)
        end)
      (spans t);
    Hashtbl.fold (fun name d acc -> (name, d) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

module Ctx = struct
  type t = {
    stats : Stats.t;
    tracer : Tracer.t;
    pool : Par.Pool.t;
    deadline : float option;
  }

  let make ?stats ?(tracer = Tracer.noop) ?(pool = Par.Pool.sequential)
      ?deadline () =
    {
      stats = (match stats with Some s -> s | None -> Stats.create ());
      tracer;
      pool;
      deadline;
    }

  let jobs t = Par.Pool.jobs t.pool

  let expired t =
    match t.deadline with None -> false | Some d -> Mono.now () > d

  let span t ?attrs name f = Tracer.with_span t.tracer ?attrs name f

  let phase t name f = Tracer.with_span t.tracer name f

  let probe t = Tracer.probe t.tracer

  let fork t =
    { t with stats = Stats.create (); tracer = Tracer.child t.tracer }

  let join ~key ~into forked =
    Stats.merge ~into:into.stats forked.stats;
    Tracer.graft into.tracer ~key forked.tracer
end

module Export = struct
  (* The current git revision, read straight from .git (no subprocess):
     HEAD is either a hash or "ref: <path>", and the ref lives in its
     own file or in packed-refs. *)
  let git_rev () =
    let read_line path =
      try
        let ic = open_in path in
        let l = try input_line ic with End_of_file -> "" in
        close_in ic;
        Some (String.trim l)
      with Sys_error _ -> None
    in
    let packed_ref name =
      try
        let ic = open_in (Filename.concat ".git" "packed-refs") in
        let found = ref None in
        (try
           while !found = None do
             let l = input_line ic in
             match String.index_opt l ' ' with
             | Some i when String.sub l (i + 1) (String.length l - i - 1) = name
               ->
               found := Some (String.sub l 0 i)
             | _ -> ()
           done
         with End_of_file -> ());
        close_in ic;
        !found
      with Sys_error _ -> None
    in
    match read_line (Filename.concat ".git" "HEAD") with
    | None -> "unknown"
    | Some head ->
      if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
        let name = String.trim (String.sub head 5 (String.length head - 5)) in
        match read_line (Filename.concat ".git" name) with
        | Some sha when sha <> "" -> sha
        | _ -> ( match packed_ref name with Some sha -> sha | None -> "unknown")
      end
      else if head <> "" then head
      else "unknown"

  let json_str = Json.str

  let provenance () =
    [ ("git_rev", json_str (git_rev ()));
      ("host_cores", string_of_int (Domain.recommended_domain_count ())) ]

  let phases_json ps = Json.record (List.map (fun (n, d) -> Attr.float n d) ps)

  let envelope ~schema ~phases ?(fields = []) records =
    Json.obj
      ((("schema", json_str schema) :: provenance ())
      @ [ ("phases", phases_json phases) ]
      @ List.map (fun (k, v) -> (k, Json.value v)) fields
      @ [ ( "records",
            "[\n" ^ String.concat ",\n" (List.map Json.record records) ^ "\n]" )
        ])
    ^ "\n"

  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc

  let write_envelope ~path ~schema ~phases ?fields records =
    write path (envelope ~schema ~phases ?fields records)

  let span_json ~times (s : Span.t) =
    Json.obj
      ([ ("id", string_of_int s.id); ("parent", string_of_int s.parent);
         ("depth", string_of_int s.depth); ("name", json_str s.name) ]
      @ (if times then [ ("t0", Json.float s.t0); ("dur", Json.float s.dur) ]
         else [])
      @ if s.attrs = [] then [] else [ ("attrs", Json.record s.attrs) ])

  let trace_lines ?(times = true) t =
    Json.obj
      ((("schema", json_str "trace/1") :: provenance ())
      @ [ ("spans", string_of_int (Tracer.span_count t));
          ("dropped", string_of_int (Tracer.dropped t));
          ("misnested", string_of_int (Tracer.misnested t)) ])
    :: List.map (span_json ~times) (Tracer.spans t)

  let write_trace ?times ~path t =
    let oc = open_out path in
    List.iter
      (fun l ->
        output_string oc l;
        output_char oc '\n')
      (trace_lines ?times t);
    close_out oc

  type metrics = {
    counters : (string * int) list;
    gauges : (string * float) list;
  }

  (* The pool's scheduler counters and seconds are cumulative since the
     pool was created and depend on dynamic scheduling, so they are read
     here on export and never enter the context's own stats. *)
  let run_metrics (ctx : Ctx.t) =
    let s = ctx.Ctx.stats and p = Par.Pool.metrics ctx.Ctx.pool in
    let counters =
      Stats.counters s
      @ Par.Pool.
          [ ("sched.max_region", p.max_region); ("sched.parks", p.parks);
            ("sched.regions", p.regions); ("sched.steals", p.steals);
            ("sched.tasks", p.tasks) ]
    and gauges =
      List.map (fun (name, dt) -> ("engine.time." ^ name, dt)) (Stats.timers s)
      @ Par.Pool.
          [ ("sched.busy_seconds", p.busy_seconds);
            ("sched.park_seconds", p.park_seconds);
            ("sched.wall_seconds", p.wall_seconds) ]
    in
    let nonzero keep l =
      List.sort (fun (a, _) (b, _) -> String.compare a b) (List.filter keep l)
    in
    { counters = nonzero (fun (_, v) -> v <> 0) counters;
      gauges = nonzero (fun (_, dt) -> dt > 0.) gauges }

  let pp_metrics ppf m =
    Format.fprintf ppf "@[<v>metrics:";
    let line fmt (k, v) = Format.fprintf ppf fmt k v in
    List.iter (line "@,  %-28s %d") m.counters;
    List.iter (line "@,  %-28s %.6f") m.gauges;
    Format.fprintf ppf "@]"

  let metrics_json m =
    let section render items =
      Json.obj (List.map (fun (k, v) -> (k, render v)) items)
    in
    Json.obj
      [ ("counters", section string_of_int m.counters);
        ("gauges", section Json.float m.gauges) ]

  (* Busy over wall times jobs across every scheduled region; [nan]
     (exported as null) when the pool never scheduled one. *)
  let parallel_efficiency pool =
    let m = Par.Pool.metrics pool in
    if m.Par.Pool.wall_seconds <= 0. then nan
    else
      m.Par.Pool.busy_seconds
      /. (m.Par.Pool.wall_seconds *. float_of_int (Par.Pool.jobs pool))

  let run_summary ?wall (ctx : Ctx.t) =
    let phases = Tracer.phase_totals ctx.Ctx.tracer in
    let phase_sum = List.fold_left (fun a (_, d) -> a +. d) 0. phases in
    let wall = match wall with Some w -> w | None -> phase_sum in
    let coverage = if wall > 0. then phase_sum /. wall else nan in
    Json.obj
      ((("schema", json_str "run-summary/3") :: provenance ())
      @ [ ("jobs", string_of_int (Ctx.jobs ctx));
          ("wall_seconds", Json.float wall);
          ("phases", phases_json phases);
          ("phase_seconds", Json.float phase_sum);
          ("phase_coverage", Json.float coverage);
          ("parallel_efficiency", Json.float (parallel_efficiency ctx.Ctx.pool));
          ("spans", string_of_int (Tracer.span_count ctx.Ctx.tracer));
          ("spans_dropped", string_of_int (Tracer.dropped ctx.Ctx.tracer));
          ("metrics", metrics_json (run_metrics ctx)) ])
    ^ "\n"
end
