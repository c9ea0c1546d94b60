(* Byte-identity oracle for the simulated Apache's startup validation.
   Every apache scenario is run through the engine and reduced to its
   id, outcome label and detail messages; the digests below were
   recorded from the assoc-list validator, before the table-driven one
   replaced it.  Error strings and check order reach the campaign
   journal, so any change to which check fires first, or to the wording
   of a message, shows up here as a digest mismatch. *)

module Engine = Conferr.Engine
module Campaign = Conferr.Campaign
module Outcome = Conferr.Outcome
module Rng = Conferr_util.Rng
module Scenario = Errgen.Scenario
module Structural = Errgen.Structural
module Variations = Errgen.Variations
module Node = Conftree.Node
module Config_set = Conftree.Config_set
module A = Suts.Mini_apache

let sut = A.sut

let base () =
  match Engine.parse_default_config sut with
  | Ok base -> base
  | Error msg -> Alcotest.failf "parse apache: %s" msg

let files = List.map fst sut.Suts.Sut.config_files

let details = function
  | Outcome.Startup_failure m | Outcome.Not_applicable m -> [ m ]
  | Outcome.Test_failure ms -> ms
  | Outcome.Passed -> []
  | Outcome.Crashed c -> [ Outcome.crash_summary c ]

let outcomes_digest base scenarios =
  let b = Buffer.create 65536 in
  List.iter
    (fun (s : Scenario.t) ->
      let o = Engine.run_scenario ~sut ~base s in
      Buffer.add_string b (String.concat "\t" (s.id :: Outcome.label o :: details o));
      Buffer.add_char b '\n')
    scenarios;
  (List.length scenarios, Digest.to_hex (Digest.string (Buffer.contents b)))

let check_digest label (n', d') scenarios_of =
  let n, d = outcomes_digest (base ()) (scenarios_of ()) in
  Alcotest.(check int) (label ^ " scenarios") n' n;
  Alcotest.(check string) (label ^ " outcomes") d' d

(* (seed, scenario count, outcome digest) of the paper's typo faultload. *)
let pinned_typo =
  [
    (1, (785, "0188b7519ef8f00013cd8b3f20d12e9a"));
    (7, (785, "c275eb51f465ed0770fb6c28fb9be77d"));
    (42, (785, "5cff581387fcad61bc65a3637b506458"));
    (1234, (785, "898313d896e4d74bd5cf53dd92a3be17"));
    (99991, (785, "cbd545ac6bd481740ede175b805530a1"));
  ]

let test_typo () =
  List.iter
    (fun (seed, pin) ->
      check_digest (Printf.sprintf "seed %d" seed) pin (fun () ->
          Campaign.typo_scenarios ~rng:(Rng.create seed)
            ~faultload:Campaign.paper_faultload sut (base ())))
    pinned_typo

let pinned_structural = (684, "31eb0f01f4a965125d83c4e7e97f28cd")

let test_structural () =
  check_digest "skill-based structural" pinned_structural (fun () ->
      let base = base () in
      List.concat_map (fun file -> Structural.all_skill_based ~file base) files)

let pinned_variations = (90, "95cdf5754348651c5f5ab1fdfade2b36")

let test_variations () =
  check_digest "variation classes" pinned_variations (fun () ->
      let base = base () in
      let rng = Rng.create 7 in
      List.concat_map
        (fun cls ->
          List.concat_map
            (fun file -> Variations.scenarios ~rng ~count:10 cls ~file base)
            files)
        Variations.all_classes)

(* The lint rule set asks the server's own validator about each
   directive: pin those verdicts on every stock directive with no module
   loaded and with every module loaded, and the full findings of the
   apache rule set on each seed-42 typo configuration. *)
let all_modules = List.map fst A.modules

let verdicts_digest () =
  let base = base () in
  let b = Buffer.create 16384 in
  List.iter
    (fun file ->
      match Config_set.find base file with
      | None -> Alcotest.failf "no %s" file
      | Some tree ->
        Node.find_all (fun n -> n.kind = Node.kind_directive) tree
        |> List.iter (fun (_, (n : Node.t)) ->
               let args = Node.value_or ~default:"" n in
               List.iter
                 (fun loaded ->
                   Buffer.add_string b
                     (match A.validate_directive ~loaded n.name args with
                      | Ok () -> "ok"
                      | Error m -> m);
                   Buffer.add_char b '\n')
                 [ []; all_modules ]))
    files;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_verdicts = "5cf33f95bc55b36b495db218cb0e3400"

let findings_digest () =
  let base = base () in
  let rules = Option.get (Suts.Lint_rules.for_sut "apache") in
  let b = Buffer.create 65536 in
  Campaign.typo_scenarios ~rng:(Rng.create 42) ~faultload:Campaign.paper_faultload sut base
  |> List.iter (fun (s : Scenario.t) ->
         Buffer.add_string b s.id;
         Buffer.add_char b '\n';
         match s.apply base with
         | Error m -> Buffer.add_string b ("apply error: " ^ m)
         | Ok set ->
           Buffer.add_string b
             (Conferr_lint.Checker.render_text
                (Conferr_lint.Checker.run ~nearest:Conferr.Suggest.nearest ~rules set)));
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_findings = "1cf9acfd294d40f687855966d32e0a76"

let test_lint_verdicts () =
  Alcotest.(check string) "validate_directive on stock directives" pinned_verdicts
    (verdicts_digest ());
  Alcotest.(check string) "apache rule findings, seed-42 typos" pinned_findings
    (findings_digest ())

let suite =
  [
    Alcotest.test_case "typo faultload outcomes pinned" `Quick test_typo;
    Alcotest.test_case "structural outcomes pinned" `Quick test_structural;
    Alcotest.test_case "variation outcomes pinned" `Quick test_variations;
    Alcotest.test_case "lint verdicts pinned" `Quick test_lint_verdicts;
  ]
