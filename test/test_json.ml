(* Tests for bwc_json: quote/of_string round-trip every byte, the
   accepted subset decodes as documented, and everything outside it is a
   typed error — never an exception. *)

module Json = Bwc_json.Json

let test_every_byte_round_trips () =
  let all = String.init 256 Char.chr in
  List.iter
    (fun s ->
      if Json.of_string (Json.quote s) <> Ok (Json.Str s) then
        Alcotest.failf "byte string %S does not round-trip" s)
    (all :: List.init 256 (fun i -> String.make 1 (Char.chr i)))

let test_quote_forms () =
  Alcotest.(check string) "short escapes" {|"a\"b\\c\nd\re\tf"|} (Json.quote "a\"b\\c\nd\re\tf");
  Alcotest.(check string) "other control bytes" {|"\u0000\u001f"|} (Json.quote "\000\031");
  Alcotest.(check string) "high bytes raw" "\"\xc3\xa9\x7f\"" (Json.quote "\xc3\xa9\x7f")

let test_accepted_subset () =
  let ok text expected =
    match Json.of_string text with
    | Ok v when v = expected -> ()
    | Ok _ -> Alcotest.failf "%s decoded to the wrong value" text
    | Error e -> Alcotest.failf "%s rejected: %s" text e
  in
  ok {| { "a" : [ 1, -2, true, false, "x" ], "b": {} , "a": [] } |}
    (Json.Obj
       [
         ("a", Json.Arr [ Json.Int 1; Json.Int (-2); Json.Bool true; Json.Bool false; Json.Str "x" ]);
         ("b", Json.Obj []);
         ("a", Json.Arr []);
       ]);
  ok {|"\/\b\f\u00e9\u0041"|} (Json.Str "/\b\012\xe9A");
  ok (string_of_int max_int) (Json.Int max_int);
  ok (string_of_int min_int) (Json.Int min_int)

let test_rejects () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [
      ""; "-"; "[-]"; "99999999999999999999999"; "null"; "1.5"; "tru"; "{\"a\" 1}";
      "[1,]"; "[1 2]"; "{\"a\":1"; "\"\\u0141\""; "\"\\u00g1\""; "\"\\u00\""; "\"\\x\"";
      "\"open"; "1 2"; String.make 100_000 '[';
    ]

let test_error_names_offset () =
  match Json.of_string "[1, -]" with
  | Error e ->
      Alcotest.(check bool) ("offset in " ^ e) true (String.ends_with ~suffix:"offset 4" e)
  | Ok _ -> Alcotest.fail "accepted a lone '-'"

let () =
  Alcotest.run "bwc_json"
    [
      ( "json",
        [
          Alcotest.test_case "every byte round-trips" `Quick test_every_byte_round_trips;
          Alcotest.test_case "quote forms" `Quick test_quote_forms;
          Alcotest.test_case "accepted subset" `Quick test_accepted_subset;
          Alcotest.test_case "rejects" `Quick test_rejects;
          Alcotest.test_case "error names offset" `Quick test_error_names_offset;
        ] );
    ]
