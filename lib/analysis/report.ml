module Json = Bwc_json.Json

let count sev findings =
  List.length (List.filter (fun f -> f.Finding.severity = sev) findings)

(* Meta rules emitted by the driver itself (not the catalog or the
   whole-program passes); shared with the SARIF reporter's rule table. *)
let meta_rules =
  [
    ("parse-error", Finding.Error, "The file failed to parse.");
    ( "unused-suppression",
      Finding.Warning,
      "An inline bwclint allow comment matches no finding in any pass — \
       syntactic or whole-program — and should be removed." );
    ( "suppression-missing-reason",
      Finding.Warning,
      "An inline suppression is in use but carries no '-- reason' \
       justification; audited suppressions must say why they are safe." );
  ]

let human ppf (r : Engine.result) =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) r.findings;
  let errors = count Finding.Error r.findings in
  let warnings = count Finding.Warning r.findings in
  Format.fprintf ppf "%d file%s scanned: %d error%s, %d warning%s"
    r.files_scanned
    (if r.files_scanned = 1 then "" else "s")
    errors
    (if errors = 1 then "" else "s")
    warnings
    (if warnings = 1 then "" else "s");
  if r.suppressions_used > 0 then
    Format.fprintf ppf " (%d suppression%s in effect)" r.suppressions_used
      (if r.suppressions_used = 1 then "" else "s");
  Format.fprintf ppf "@."

let suppression_audit ppf (r : Engine.result) =
  if r.suppressed <> [] then begin
    Format.fprintf ppf "audited suppressions:@.";
    List.iter
      (fun ((f : Finding.t), reason) ->
        Format.fprintf ppf "  %s:%d [%s] -- %s@." f.file f.line f.rule
          (if reason = "" then "(no reason recorded)" else reason))
      r.suppressed
  end

(* ----- JSON ----- *)

let json_finding ppf (f : Finding.t) =
  Format.fprintf ppf
    "{\"file\":%s,\"line\":%d,\"col\":%d,\"rule\":%s,\"severity\":%s,\"key\":%s,\"message\":%s"
    (Json.quote f.file) f.line f.col (Json.quote f.rule)
    (Json.quote (Finding.severity_label f.severity))
    (Json.quote (Finding.stable_key f))
    (Json.quote f.message);
  if f.witness <> [] then begin
    Format.fprintf ppf ",\"witness\":[";
    List.iteri
      (fun i step ->
        if i > 0 then Format.fprintf ppf ",";
        Format.fprintf ppf "%s" (Json.quote step))
      f.witness;
    Format.fprintf ppf "]"
  end;
  Format.fprintf ppf "}"

let json ppf (r : Engine.result) =
  Format.fprintf ppf "{@[<v 1>@,\"files_scanned\": %d,@,\"errors\": %d,@,"
    r.files_scanned
    (count Finding.Error r.findings);
  Format.fprintf ppf "\"warnings\": %d,@,\"suppressions_used\": %d,@,"
    (count Finding.Warning r.findings)
    r.suppressions_used;
  Format.fprintf ppf "\"parse_failed\": %b,@,\"findings\": [@[<v 1>"
    r.parse_failed;
  List.iteri
    (fun i f ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf "@,%a" json_finding f)
    r.findings;
  Format.fprintf ppf "@]@,],@,\"suppressed\": [@[<v 1>";
  List.iteri
    (fun i ((f : Finding.t), reason) ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf "@,{\"reason\":%s,\"finding\":%a}" (Json.quote reason)
        json_finding f)
    r.suppressed;
  Format.fprintf ppf "@]@,]@]@,}@."

let rule_catalog ppf () =
  let line id sev doc =
    Format.fprintf ppf "%-34s %-7s %s@." id (Finding.severity_label sev) doc
  in
  List.iter
    (fun (r : Rules.t) ->
      line r.id r.severity r.doc;
      if r.only_paths <> [] then
        Format.fprintf ppf "%-34s         only: %s@." ""
          (String.concat ", " r.only_paths);
      if r.allow_paths <> [] then
        Format.fprintf ppf "%-34s         exempt: %s@." ""
          (String.concat ", " r.allow_paths))
    Rules.all;
  Format.fprintf ppf "@.whole-program rules:@.";
  List.iter (fun (id, sev, doc) -> line id sev doc) Taint.rules;
  Format.fprintf ppf "@.driver meta rules:@.";
  List.iter (fun (id, sev, doc) -> line id sev doc) meta_rules
