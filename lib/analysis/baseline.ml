(* Committed-baseline support: audit-then-gate.

   A baseline file is canonical JSON — entries sorted, two-space
   indent — so regenerating it on an unchanged tree is byte-identical
   and diffs review cleanly.  Matching is by (rule, file, stable key):
   symbolic keys (witness anchors, def names) survive line drift, the
   "L<line>" fallback pins purely positional findings. *)

module Json = Bwc_json.Json

type entry = { b_rule : string; b_file : string; b_key : string }

let compare_entry a b =
  let c = String.compare a.b_rule b.b_rule in
  if c <> 0 then c
  else
    let c = String.compare a.b_file b.b_file in
    if c <> 0 then c else String.compare a.b_key b.b_key

let of_finding (f : Finding.t) =
  { b_rule = f.rule; b_file = f.file; b_key = Finding.stable_key f }

let of_findings fs = List.sort_uniq compare_entry (List.map of_finding fs)

(* ----- writing ----- *)

let to_json entries =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\n  \"version\": 1,\n  \"findings\": [";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    { \"rule\": ";
      Buffer.add_string buf (Json.quote e.b_rule);
      Buffer.add_string buf ", \"file\": ";
      Buffer.add_string buf (Json.quote e.b_file);
      Buffer.add_string buf ", \"key\": ";
      Buffer.add_string buf (Json.quote e.b_key);
      Buffer.add_string buf " }")
    entries;
  if entries <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}\n";
  Buffer.contents buf

let save ~path entries =
  let oc = open_out path in
  output_string oc (to_json (List.sort_uniq compare_entry entries));
  close_out oc

(* ----- reading ----- *)

let entry_of_json = function
  | Json.Obj fs -> (
      let str k = match List.assoc_opt k fs with Some (Json.Str s) -> Some s | _ -> None in
      match (str "rule", str "file", str "key") with
      | Some b_rule, Some b_file, Some b_key -> Some { b_rule; b_file; b_key }
      | _ -> None)
  | Json.Arr _ | Json.Str _ | Json.Int _ | Json.Bool _ -> None

let load ~path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error msg -> Error msg
  | s -> (
      match Json.of_string s with
      | Error msg -> Error (path ^ ": " ^ msg)
      | Ok (Json.Obj fields) -> (
          match List.assoc_opt "findings" fields with
          | Some (Json.Arr items) ->
              let entries = List.map entry_of_json items in
              if List.mem None entries then Error (path ^ ": malformed baseline entry")
              else Ok (List.sort_uniq compare_entry (List.filter_map Fun.id entries))
          | _ -> Error (path ^ ": missing \"findings\" array"))
      | Ok _ -> Error (path ^ ": expected a JSON object"))

(* ----- diffing ----- *)

type diff = {
  fresh : Finding.t list;  (* not in the baseline: fail *)
  matched : (Finding.t * entry) list;  (* audited, carried *)
  gone : entry list;  (* baseline entries no longer produced: fail *)
}

let apply entries findings =
  let used = ref [] in
  let fresh = ref [] and matched = ref [] in
  List.iter
    (fun f ->
      let e = of_finding f in
      if List.exists (fun b -> compare_entry b e = 0) entries then begin
        if not (List.exists (fun b -> compare_entry b e = 0) !used) then
          used := e :: !used;
        matched := (f, e) :: !matched
      end
      else fresh := f :: !fresh)
    findings;
  let gone =
    List.filter
      (fun b -> not (List.exists (fun u -> compare_entry u b = 0) !used))
      entries
  in
  {
    fresh = List.rev !fresh;
    matched = List.rev !matched;
    gone = List.sort compare_entry gone;
  }
