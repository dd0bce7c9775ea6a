(* The docs state only what the tree holds. README, DESIGN, EXPERIMENTS
   and the verify skill are read as written, and three kinds of claim in
   them are checked against the tree:

   - a test is cited as `suite` "name": a suite name in backticks, then
     the case name in double quotes. Whitespace runs count as one blank,
     so a citation may wrap across lines. Every citation must name a
     registered test;
   - a test count is a number followed by "tests", with at most one word
     between ("399 unit/property/integration tests"). Every count must be
     the number of registered tests;
   - a golden is cited by its path, golden/<file>; a <file> with a star
     is a pattern. Every one must exist (a pattern must match a file). *)

let docs = [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md"; ".claude/skills/verify/SKILL.md" ]
let root = if Sys.file_exists "../DESIGN.md" then ".." else "."

let read path =
  let ic = open_in_bin (Filename.concat root path) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let is_blank c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

(* runs of whitespace as one blank *)
let squeeze s =
  let b = Buffer.create (String.length s) in
  String.iteri
    (fun i c ->
      if not (is_blank c) then Buffer.add_char b c
      else if i = 0 || not (is_blank s.[i - 1]) then Buffer.add_char b ' ')
    s;
  Buffer.contents b

let is_suite_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       s

(* every `suite` "name" in a squeezed text, in order *)
let citations text =
  let n = String.length text in
  let upto c i = String.index_from_opt text i c in
  let rec scan i acc =
    match upto '`' i with
    | None -> List.rev acc
    | Some a -> (
      match upto '`' (a + 1) with
      | None -> List.rev acc
      | Some b ->
        let suite = String.sub text (a + 1) (b - a - 1) in
        let q = if b + 1 < n && text.[b + 1] = ' ' then b + 2 else b + 1 in
        if is_suite_name suite && q < n && text.[q] = '"' then
          match upto '"' (q + 1) with
          | Some e -> scan (e + 1) ((suite, String.sub text (q + 1) (e - q - 1)) :: acc)
          | None -> List.rev acc
        else scan (b + 1) acc)
  in
  scan 0 []

let is_number w = w <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) w

(* every number that states a test count in a squeezed text *)
let test_counts text =
  let words = Array.of_list (String.split_on_char ' ' text) in
  let trim w =
    let keep = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false in
    let i = ref 0 and j = ref (String.length w) in
    while !i < !j && not (keep w.[!i]) do incr i done;
    while !j > !i && not (keep w.[!j - 1]) do decr j done;
    String.sub w !i (!j - !i)
  in
  let counts = ref [] in
  Array.iteri
    (fun i w ->
      if trim w = "tests" then
        if i >= 1 && is_number (trim words.(i - 1)) then counts := trim words.(i - 1) :: !counts
        else if i >= 2 && is_number (trim words.(i - 2)) && not (is_number (trim words.(i - 1)))
        then counts := trim words.(i - 2) :: !counts)
    words;
  List.rev_map int_of_string !counts

(* every golden/<file> in a text; "" for the directory itself *)
let goldens text =
  let n = String.length text and pre = "golden/" in
  let k = String.length pre in
  let name_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | '*' -> true
    | _ -> false
  in
  let rec scan i acc =
    if i + k > n then List.rev acc
    else if String.sub text i k = pre then begin
      let j = ref (i + k) in
      while !j < n && name_char text.[!j] do incr j done;
      let e = ref !j in
      while !e > i + k && text.[!e - 1] = '.' do decr e done;
      scan !j (String.sub text (i + k) (!e - i - k) :: acc)
    end
    else scan (i + 1) acc
  in
  scan 0 []

(* a pattern whose only metacharacter is [*] *)
let glob_matches pat s =
  let rec go p i =
    if p = String.length pat then i = String.length s
    else if pat.[p] = '*' then go (p + 1) i || (i < String.length s && go p (i + 1))
    else i < String.length s && pat.[p] = s.[i] && go (p + 1) (i + 1)
  in
  go 0 0

let golden_exists name =
  let dir = Filename.concat root "golden" in
  if name = "" then Sys.file_exists dir
  else if String.contains name '*' then Array.exists (glob_matches name) (Sys.readdir dir)
  else Sys.file_exists (Filename.concat dir name)

let each_doc f = List.concat_map (fun doc -> List.map (fun x -> (doc, x)) (f (squeeze (read doc)))) docs

let registered_names suites =
  List.concat_map (fun (suite, cases) -> List.map (fun (name, _, _) -> (suite, squeeze name)) cases) suites

let check_citations suites () =
  let known = registered_names suites in
  let cited = each_doc citations in
  if cited = [] then Alcotest.fail "no test is cited in the docs";
  let missing = List.filter (fun (_, c) -> not (List.mem c known)) cited in
  if missing <> [] then
    Alcotest.failf "cited tests that are not registered:\n%s"
      (String.concat "\n"
         (List.map (fun (doc, (s, n)) -> Printf.sprintf "  %s: `%s` \"%s\"" doc s n) missing))

let check_counts suites () =
  let total = List.length (registered_names suites) in
  let stated = each_doc test_counts in
  if stated = [] then Alcotest.fail "no doc states the test count";
  List.iter
    (fun (doc, n) ->
      if n <> total then Alcotest.failf "%s states %d tests; %d are registered" doc n total)
    stated

let check_goldens () =
  let missing = List.filter (fun (_, g) -> not (golden_exists g)) (each_doc goldens) in
  if missing <> [] then
    Alcotest.failf "cited goldens that do not exist:\n%s"
      (String.concat "\n" (List.map (fun (doc, g) -> Printf.sprintf "  %s: golden/%s" doc g) missing))

let test_scanners () =
  let text = squeeze "see `sched.slot` \"reset\n   reclaims parked contexts\", `--rules` \"x\", `Kv` \"y\"" in
  Alcotest.(check (list (pair string string)))
    "one citation, wrapped" [ ("sched.slot", "reset reclaims parked contexts") ] (citations text);
  Alcotest.(check (list int))
    "counts" [ 12; 400 ]
    (test_counts (squeeze "12 tests; 400 unit/property tests, not three tests or the tests"));
  Alcotest.(check (list string))
    "goldens" [ "lint.json"; "*.out"; "" ]
    (goldens "golden/lint.json. golden/*.out and golden/ itself")

(* [others] are the other suites of the runner; the count includes these *)
let suite others =
  let rec own =
    lazy
      [
        ( "docs",
          [
            Alcotest.test_case "scanners read the three forms" `Quick test_scanners;
            Alcotest.test_case "every cited test is registered" `Quick (fun () ->
                check_citations (others @ Lazy.force own) ());
            Alcotest.test_case "every stated test count is the registered count" `Quick
              (fun () -> check_counts (others @ Lazy.force own) ());
            Alcotest.test_case "every cited golden exists" `Quick check_goldens;
          ] );
      ]
  in
  Lazy.force own
