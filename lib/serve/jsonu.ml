(** Minimal JSON parser/printer for the serve protocol.  Recursive
    descent, one value per document; integers stay exact ([Int]), other
    numbers become [Float].  Rendering is compact and deterministic so
    responses are byte-stable. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string * int

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let error st msg = raise (Bad (msg, st.pos))

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st (Printf.sprintf "expected '%c', got '%c'" c c')
  | None -> error st (Printf.sprintf "expected '%c', got end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected literal %s" word)

(* UTF-8 encode one code point (enough for \uXXXX; surrogate pairs are
   stored as two 3-byte sequences, which round-trips our own output) *)
let add_utf8 buf cp =
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

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if st.pos + 4 > String.length st.src then
                  error st "truncated \\u escape";
                let hex = String.sub st.src st.pos 4 in
                (* exactly four hex digits: [int_of_string] alone would
                   also take '_' separators *)
                let is_hex = function
                  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                  | _ -> false
                in
                if not (String.for_all is_hex hex) then
                  error st "bad \\u escape";
                let cp = int_of_string ("0x" ^ hex) in
                st.pos <- st.pos + 4;
                add_utf8 buf cp
            | _ -> error st (Printf.sprintf "bad escape '\\%c'" c));
            go ())
    | Some c when Char.code c < 0x20 -> error st "control character in string"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      (* 1e400 overflows to inf, which has no JSON rendering *)
      | Some f when Float.is_finite f -> Float f
      | _ -> error st (Printf.sprintf "bad number %S" text))

(* Deepest array/object nesting [parse] accepts.  The documents this
   repo exchanges nest about four deep; the bound keeps a hostile line
   (a million ['['s) from recursing without limit on the accept loop. *)
let max_depth = 64

let rec parse_value st depth =
  skip_ws st;
  let enter () =
    if depth >= max_depth then
      error st (Printf.sprintf "nesting deeper than %d" max_depth);
    advance st
  in
  match peek st with
  | None -> error st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
      enter ();
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else
        let rec items acc =
          let v = parse_value st (depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List (List.rev (v :: acc))
          | _ -> error st "expected ',' or ']'"
        in
        items []
  | Some '{' ->
      enter ();
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields (kv :: acc)
          | Some '}' ->
              advance st;
              Obj (List.rev (kv :: acc))
          | _ -> error st "expected ',' or '}'"
        in
        fields []
  | Some c -> error st (Printf.sprintf "unexpected '%c'" c)

let parse (s : string) : (t, string) result =
  let st = { src = s; pos = 0 } in
  match parse_value st 0 with
  | v -> (
      skip_ws st;
      match peek st with
      | None -> Ok v
      | Some c -> Error (Printf.sprintf "trailing garbage '%c' at %d" c st.pos))
  | exception Bad (msg, pos) -> Error (Printf.sprintf "%s at %d" msg pos)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let to_string (v : t) : string =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (Printf.sprintf "%g" f)
    | Str s ->
        Buffer.add_char buf '"';
        escape_into buf s;
        Buffer.add_char buf '"'
    | List vs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go v)
          vs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape_into buf k;
            Buffer.add_string buf "\":";
            go v)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let member (key : string) : t -> t option = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_list = function List vs -> Some vs | _ -> None

let string_list (ss : string list) : t = List (List.map (fun s -> Str s) ss)
