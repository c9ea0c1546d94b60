(* Byte-identity oracle for scenario generation.  The digests below were
   recorded from the list-based typo enumerator, before the per-call
   sampler replaced it; any change to the typo model, the RNG stream or
   the order of the typo space shows up here as a digest mismatch. *)

module Campaign = Conferr.Campaign
module Engine = Conferr.Engine
module Rng = Conferr_util.Rng
module Scenario = Errgen.Scenario
module Typo = Errgen.Typo
module Layout = Keyboard.Layout

let seeds = [ 1; 7; 42; 1234; 99991 ]

let base_of sut =
  match Engine.parse_default_config sut with
  | Ok base -> base
  | Error msg -> Alcotest.failf "parse %s: %s" sut.Suts.Sut.sut_name msg

let generate sut base seed =
  Campaign.typo_scenarios ~rng:(Rng.create seed) ~faultload:Campaign.paper_faultload sut
    base

(* Every scenario applied to the base and re-serialized, so a change in
   what a scenario does is caught even when its description is not. *)
let applied_digest sut base scenarios =
  let b = Buffer.create 65536 in
  List.iter
    (fun (s : Scenario.t) ->
      Buffer.add_string b s.id;
      Buffer.add_char b '\n';
      (match s.apply base with
       | Error msg -> Buffer.add_string b ("apply error: " ^ msg)
       | Ok set ->
         (match Engine.serialize_config sut set with
          | Error msg -> Buffer.add_string b ("serialize error: " ^ msg)
          | Ok files ->
            List.iter
              (fun (name, text) ->
                Buffer.add_string b name;
                Buffer.add_char b '\000';
                Buffer.add_string b text;
                Buffer.add_char b '\000')
              files));
      Buffer.add_char b '\n')
    scenarios;
  Digest.to_hex (Digest.string (Buffer.contents b))

let manifest_digest scenarios = Digest.to_hex (Digest.string (Scenario.manifest_csv scenarios))

(* (sut, [(seed, manifest digest, applied digest)]) *)
let pinned =
  [
    ( "mysql",
      [
        (1, "681683053e7997af17b8503ddc1f8336", "c63b67de3c9af2cbb34ce4940ecf0238");
        (7, "7be9e91c55e3b7183642de88ab452b84", "dcf6391364a4da8a0200a015207d9e44");
        (42, "aa778f255ae2f303eb4e8d79f411bfe3", "b5e3eb024a0bd746bbd1d0fbd03e0796");
        (1234, "fd06abdfb31b2c2ca868f004d19cfea6", "f6dfff3a1fdbb3dd50f5a2d1444e625e");
        (99991, "f3ce3ade0fbf0058dd39f4cfd7c5300a", "70a6d527259d07cf098329c4172b9c6e");
      ] );
    ( "postgres",
      [
        (1, "a222225175ae64b3cd0c9ac40b160e4a", "399b04766a1def42667d12a3aa9a5589");
        (7, "412e8f32d7f06d56c681e49759524f11", "d1dce14896c4fabf347633af4d09b680");
        (42, "227d9045b84a30363ca48ad3a7d5333e", "9e845bef1cf135f8970c7921ac37b65b");
        (1234, "1f65c175b575f8ab392a9b20ef62055e", "4980c2b9c4459b5dee588f31ebd4fadc");
        (99991, "1c7d347b091cddfbb761bc65cbf1f1e0", "beb593c21b4d55b0ca5599107a956d87");
      ] );
    ( "apache",
      [
        (1, "263cbbfc7071f565f3ec4132a7906e1d", "084e1d51ac60dac1782cdcd5202ffe3a");
        (7, "8d365a010acc27826316d1ea6cb16e32", "de99c42f0879dbed9d1fc81dc0c5b7d0");
        (42, "aeb8286f7f3d9fc3e9a621bbca0641ba", "6fe2197ca17251273a975a073137c967");
        (1234, "5fddd2493b503e04169602be05580d9e", "f9203b9d1659d9fe35f451c73e728080");
        (99991, "1a9864e27bf9afe9bc015ab54eb8cc14", "aa01a25c855dd0dc4469abf60e219d3d");
      ] );
    ( "bind",
      [
        (1, "433b7be9a70cc6773a8f3d5ecabe9ed3", "bd82b2d12550cc65df2791603d468b11");
        (7, "c19c40e6352742099d170f4d17d27136", "c664aaa5737d2d17d7ad60b5b9b52cbf");
        (42, "cf4897c88e57953af5d1c52559c3ccff", "e32e8bdc02b0feb54de44534a391de76");
        (1234, "1dbb2f83ef3e14fee8f17933083d4b6c", "b9c99c4f2c0f296b972a22641bb94e1b");
        (99991, "08d72e357a3d1e0f6d4c1005e2005d3a", "5022ac2f9ea8182479bf6ae42e610e8c");
      ] );
    ( "djbdns",
      [
        (1, "214fd6f2715fec4cf666f8364fa18e06", "4e64573b4644e886009568de99a2e152");
        (7, "1955f7b476471f4265aede732dcb22a4", "ec5e98f97441172aef223b6488b64f65");
        (42, "2ddf7e2d25558fea933a085659e2683f", "dd3fc866fa918eac830bc789395ca73d");
        (1234, "7ebc7e20b94749e9161bfb0e2c844731", "abbde3f7570b5a8118aa43938f23a911");
        (99991, "665edebed14a205df72725252455fb36", "7078fe1692aa21d1ab190a567655ed97");
      ] );
    ( "appserver",
      [
        (1, "bbe7382b039bd82bc9bcd11c313cd078", "f9935304cdf927f44da0ac980a672aa1");
        (7, "ea9e131a0ffb75a42d70e0feecfa5854", "d3ab6a1cceab82b83376769d63b6790d");
        (42, "77baa7efe05eb187d4e2e77f5f97f8b9", "b5586d3f368cee564427f5e0066cb021");
        (1234, "436982129e0c82a437e2c863901374f0", "79053437f8f89262b82a7fa87ec9e7b7");
        (99991, "ad476c26576e5e99e807185b0c4ac015", "e62781877d10b8c13403d29d02d5b102");
      ] );
  ]

let sut_named name =
  match Suts.Catalog.find name with Some sut -> sut | None -> Alcotest.failf "no SUT %s" name

let check_sut name rows () =
  let sut = sut_named name in
  let base = base_of sut in
  List.iter
    (fun seed ->
      let scenarios = generate sut base seed in
      let m = manifest_digest scenarios and a = applied_digest sut base scenarios in
      match List.find_opt (fun (s, _, _) -> s = seed) rows with
      | None -> Alcotest.failf "%s seed %d: nothing pinned" name seed
      | Some (_, m', a') ->
        Alcotest.(check string) (Printf.sprintf "%s seed %d manifest" name seed) m' m;
        Alcotest.(check string) (Printf.sprintf "%s seed %d applied" name seed) a' a)
    seeds

(* The word-level entry points, over every SUT's default directive
   names and values on all three layouts. *)
let words () =
  List.concat_map
    (fun sut ->
      let base = base_of sut in
      Conftree.Config_set.to_list base
      |> List.concat_map (fun (_, tree) ->
             Conftree.Node.find_all (fun _ -> true) tree
             |> List.concat_map (fun (_, (n : Conftree.Node.t)) ->
                    n.name :: Option.to_list n.value)))
    Suts.Catalog.all
  |> List.sort_uniq compare

let word_level_digest () =
  let b = Buffer.create 65536 in
  let words = words () in
  List.iter
    (fun layout ->
      let rng = Rng.create 5 in
      List.iter
        (fun w ->
          List.iter
            (fun kind ->
              List.iter
                (fun (v, d) -> Buffer.add_string b (v ^ "\t" ^ d ^ "\n"))
                (Typo.variants ~layout kind w))
            Typo.all_kinds;
          let draw = function
            | None -> Buffer.add_string b "-\n"
            | Some (v, d) -> Buffer.add_string b (v ^ "\t" ^ d ^ "\n")
          in
          draw (Typo.random_any ~layout rng w);
          draw (Typo.random_kind_first ~layout rng w))
        words)
    [ Layout.us_qwerty; Layout.us_dvorak; Layout.ch_qwertz ];
  let vocabulary = List.filteri (fun i _ -> i mod 3 = 0) words in
  List.iter
    (fun w ->
      List.iter
        (fun (c, d) -> Buffer.add_string b (Printf.sprintf "%s>%s:%d\n" w c d))
        (Typo.corrections ~vocabulary w))
    (List.filteri (fun i _ -> i mod 7 = 0) words);
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_word_level = "3559a98b5cd9b76a5a968f1563bf1662"

let test_word_level () =
  Alcotest.(check string) "variants, draws and corrections" pinned_word_level
    (word_level_digest ())

(* Generation keeps no state between calls: two domains generating at
   once get exactly the manifests one domain gets in sequence. *)
let test_concurrent_generation () =
  let jobs =
    List.concat_map
      (fun name -> List.map (fun seed -> (name, seed)) [ 3; 11 ])
      [ "apache"; "bind"; "postgres"; "mysql" ]
  in
  let bases = List.map (fun (name, _) -> (name, base_of (sut_named name))) jobs in
  let manifests order =
    List.map
      (fun (name, seed) ->
        ((name, seed), Scenario.manifest_csv (generate (sut_named name) (List.assoc name bases) seed)))
      order
  in
  let sequential = manifests jobs in
  let a = Domain.spawn (fun () -> manifests jobs)
  and b = Domain.spawn (fun () -> manifests (List.rev jobs)) in
  let a = Domain.join a and b = Domain.join b in
  List.iter
    (fun (key, expected) ->
      let name, seed = key in
      let label = Printf.sprintf "%s seed %d" name seed in
      Alcotest.(check string) (label ^ " domain a") expected (List.assoc key a);
      Alcotest.(check string) (label ^ " domain b") expected (List.assoc key b))
    sequential

let suite =
  List.map
    (fun (name, rows) ->
      Alcotest.test_case (Printf.sprintf "%s manifests pinned" name) `Quick (check_sut name rows))
    pinned
  @ [
      Alcotest.test_case "word-level entry points pinned" `Quick test_word_level;
      Alcotest.test_case "two domains generate like one" `Quick test_concurrent_generation;
    ]
