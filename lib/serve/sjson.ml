type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

(* One mutable cursor over the line; errors carry the byte offset so a
   malformed event can be reported precisely in the error response. *)
type cursor = { s : string; mutable pos : int }

let fail c msg = raise (Error (Printf.sprintf "%s at byte %d" msg c.pos))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | _ -> continue := false
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let expect_lit c lit value =
  let len = String.length lit in
  if c.pos + len <= String.length c.s && String.sub c.s c.pos len = lit then begin
    c.pos <- c.pos + len;
    value
  end
  else fail c (Printf.sprintf "expected '%s'" lit)

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c "expected hex digit"

(* UTF-8 encode a BMP code point (surrogate pairs unsupported). *)
let utf8_add buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | None -> fail c "unterminated escape"
      | Some ch ->
        advance c;
        (match ch with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if c.pos + 4 > String.length c.s then fail c "truncated \\u escape";
          let cp = ref 0 in
          for _ = 1 to 4 do
            cp := (!cp * 16) + hex_digit c c.s.[c.pos];
            advance c
          done;
          if !cp >= 0xD800 && !cp <= 0xDFFF then
            fail c "surrogate escapes unsupported";
          utf8_add buf !cp
        | _ -> fail c "invalid escape"));
      go ()
    | Some ch when Char.code ch < 0x20 -> fail c "raw control character"
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

(* RFC 8259 grammar: minus? int frac? exp? with int = 0 | [1-9][0-9]*.
   [float_of_string] alone is too permissive (it takes "+1", "01",
   "0x10", "1_000"), so the literal is validated before conversion. *)
let valid_number_lit lit =
  let n = String.length lit in
  let i = ref 0 in
  let digit ch = ch >= '0' && ch <= '9' in
  let digits () =
    if !i < n && digit lit.[!i] then begin
      while !i < n && digit lit.[!i] do
        incr i
      done;
      true
    end
    else false
  in
  if !i < n && lit.[!i] = '-' then incr i;
  (if !i < n && lit.[!i] = '0' then begin
     incr i;
     true
   end
   else digits ())
  && (if !i < n && lit.[!i] = '.' then begin
        incr i;
        digits ()
      end
      else true)
  && (if !i < n && (lit.[!i] = 'e' || lit.[!i] = 'E') then begin
        incr i;
        if !i < n && (lit.[!i] = '+' || lit.[!i] = '-') then incr i;
        digits ()
      end
      else true)
  && !i = n

let parse_number c =
  let start = c.pos in
  let num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let continue = ref true in
  while !continue do
    match peek c with
    | Some ch when num_char ch -> advance c
    | _ -> continue := false
  done;
  if c.pos = start then fail c "expected number";
  let lit = String.sub c.s start (c.pos - start) in
  match float_of_string_opt lit with
  | Some f when Float.is_finite f && valid_number_lit lit -> f
  | _ ->
    c.pos <- start;
    fail c (Printf.sprintf "invalid number '%s'" lit)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        fields := (key, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ()
        | Some '}' -> advance c
        | _ -> fail c "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value c in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements ()
        | Some ']' -> advance c
        | _ -> fail c "expected ',' or ']'"
      in
      elements ();
      Arr (List.rev !items)
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> expect_lit c "true" (Bool true)
  | Some 'f' -> expect_lit c "false" (Bool false)
  | Some 'n' -> expect_lit c "null" Null
  | Some _ -> Num (parse_number c)

let parse s =
  let c = { s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Error msg -> Result.Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 ->
    Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_list = function Arr l -> Some l | _ -> None

(* ------------------------------------------------------------------ *)
(* Printer                                                              *)
(* ------------------------------------------------------------------ *)

(* Obs.Json's float rendering, with integral values printed without a
   fraction: determinism over prettiness. *)
let render_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Obs.Json.float f

let rec render = function
  | Null -> "null"
  | Bool true -> "true"
  | Bool false -> "false"
  | Num f -> render_float f
  | Str s -> Obs.Json.str s
  | Arr items -> "[" ^ String.concat "," (List.map render items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Obs.Json.str k ^ ":" ^ render v) fields)
    ^ "}"
