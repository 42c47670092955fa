type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Int of int
  | Bool of bool

exception Bad of string * int

let max_depth = 512

let hex_digit = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> Some c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal"
  in
  let unicode_escape () =
    (* [pos] is on the 'u'; the four hex digits follow *)
    if !pos + 4 >= n then fail "short \\u escape";
    let code = ref 0 in
    for i = 1 to 4 do
      match hex_digit s.[!pos + i] with
      | Some d -> code := (!code * 16) + d
      | None -> fail "bad \\u escape"
    done;
    if !code > 0xff then fail "\\u escape above 0xff";
    pos := !pos + 4;
    Char.chr !code
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          let c =
            match peek () with
            | Some (('"' | '\\' | '/') as c) -> c
            | Some 'b' -> '\b'
            | Some 'f' -> '\012'
            | Some 'n' -> '\n'
            | Some 'r' -> '\r'
            | Some 't' -> '\t'
            | Some 'u' -> unicode_escape ()
            | Some _ | None -> fail "bad escape"
          in
          Buffer.add_char buf c;
          incr pos;
          go ()
      | Some c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_int () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some i -> Int i
    | None ->
        pos := start;
        fail "bad integer"
  in
  (* [seq close item] reads comma-separated items up to [close]; the
     opening bracket is already consumed *)
  let seq close item =
    skip_ws ();
    if peek () = Some close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go acc
        | Some c when c = close ->
            incr pos;
            List.rev acc
        | Some _ | None -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        Obj
          (seq '}' (fun () ->
               let key = parse_string () in
               expect ':';
               (key, value (depth + 1))))
    | Some '[' ->
        incr pos;
        Arr (seq ']' (fun () -> value (depth + 1)))
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some ('-' | '0' .. '9') -> parse_int ()
    | Some _ -> fail "unexpected byte"
    | None -> fail "missing value"
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (msg, at) -> Error (Printf.sprintf "%s at offset %d" msg at)

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf
