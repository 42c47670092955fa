(* SARIF 2.1.0 output so findings land in code-scanning UIs (GitHub
   "Security" tab) with witness paths rendered as code flows.

   Suppressed findings are still emitted, carrying an inSource
   suppression object with the audit justification — the scanning UI is
   the audit trail; only unsuppressed, non-baselined findings affect the
   exit code (that logic lives in bin/bwclint, not here). *)

let schema = "https://json.schemastore.org/sarif-2.1.0.json"

let all_rules () =
  List.map (fun (r : Rules.t) -> (r.id, r.severity, r.doc)) Rules.all
  @ Taint.rules @ Report.meta_rules

let level = function Finding.Error -> "error" | Finding.Warning -> "warning"

let str = Bwc_json.Json.quote

let location (f : Finding.t) =
  Printf.sprintf
    "{ \"physicalLocation\": { \"artifactLocation\": { \"uri\": %s }, \
     \"region\": { \"startLine\": %d, \"startColumn\": %d } } }"
    (str f.file) (max 1 f.line)
    (max 1 (f.col + 1))

let code_flow (f : Finding.t) =
  if List.length f.witness < 2 then None
  else
    let step i name =
      let physical =
        if i = 0 then
          Printf.sprintf
            " \"physicalLocation\": { \"artifactLocation\": { \"uri\": %s }, \
             \"region\": { \"startLine\": %d } },"
            (str f.file) (max 1 f.line)
        else ""
      in
      Printf.sprintf
        "{ \"location\": {%s \"logicalLocations\": [ { \
         \"fullyQualifiedName\": %s } ], \"message\": { \"text\": %s } } }"
        physical (str name) (str name)
    in
    Some
      (Printf.sprintf
         "\"codeFlows\": [ { \"threadFlows\": [ { \"locations\": [ %s ] } ] } \
          ], "
         (String.concat ", " (List.mapi step f.witness)))

let result ?suppression (f : Finding.t) =
  let flow = match code_flow f with Some s -> s | None -> "" in
  let sup =
    match suppression with
    | None -> ""
    | Some reason ->
        Printf.sprintf
          ", \"suppressions\": [ { \"kind\": \"inSource\", \"justification\": \
           %s } ]"
          (str (if reason = "" then "(no reason recorded)" else reason))
  in
  Printf.sprintf
    "{ \"ruleId\": %s, \"level\": %s, %s\"message\": { \"text\": %s }, \
     \"locations\": [ %s ]%s }"
    (str f.rule)
    (str (level f.severity))
    flow (str f.message) (location f) sup

let to_string ?(suppressed = []) findings =
  let rules =
    List.map
      (fun (id, sev, doc) ->
        Printf.sprintf
          "{ \"id\": %s, \"shortDescription\": { \"text\": %s }, \
           \"defaultConfiguration\": { \"level\": %s } }"
          (str id) (str doc)
          (str (level sev)))
      (all_rules ())
  in
  let results =
    List.map (fun f -> result f) findings
    @ List.map (fun (f, reason) -> result ~suppression:reason f) suppressed
  in
  Printf.sprintf
    "{\n\
    \  \"$schema\": %s,\n\
    \  \"version\": \"2.1.0\",\n\
    \  \"runs\": [ {\n\
    \    \"tool\": { \"driver\": {\n\
    \      \"name\": \"bwclint\",\n\
    \      \"informationUri\": \
     \"https://example.invalid/bwcluster/docs/DESIGN.md\",\n\
    \      \"version\": \"2.0.0\",\n\
    \      \"rules\": [ %s ]\n\
    \    } },\n\
    \    \"results\": [ %s ]\n\
    \  } ]\n\
     }\n"
    (str schema)
    (String.concat ", " rules)
    (String.concat ", " results)
