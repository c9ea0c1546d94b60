module Typo = Errgen.Typo
module Strutil = Conferr_util.Strutil
module Rng = Conferr_util.Rng

let words_of variants = List.map fst variants

let test_omission () =
  let vs = words_of (Typo.variants Typo.Omission "port") in
  Alcotest.(check (list string)) "all single-char drops"
    [ "ort"; "prt"; "pot"; "por" ]
    vs

let test_omission_short_word () =
  Alcotest.(check (list string)) "single letter is kept" []
    (words_of (Typo.variants Typo.Omission "p"))

let test_insertion_uses_neighbors () =
  let vs = words_of (Typo.variants Typo.Insertion "a") in
  Alcotest.(check bool) "non-empty" true (vs <> []);
  Alcotest.(check bool) "doubling excluded by default (paper model)" false
    (List.mem "aa" vs);
  Alcotest.(check bool) "doubling available opt-in" true
    (List.mem "aa" (words_of (Typo.variants ~include_doubling:true Typo.Insertion "a")));
  List.iter
    (fun w ->
      Alcotest.(check int) "one longer" 2 (String.length w);
      let inserted = if w.[0] = 'a' then w.[1] else w.[0] in
      let neighbours = Keyboard.Layout.neighbors Keyboard.Layout.us_qwerty 'a' in
      Alcotest.(check bool)
        (Printf.sprintf "%c neighbours a" inserted)
        true
        (List.mem inserted neighbours))
    vs

let test_substitution_uses_neighbors () =
  let vs = words_of (Typo.variants Typo.Substitution "ab") in
  List.iter
    (fun w ->
      Alcotest.(check int) "same length" 2 (String.length w);
      Alcotest.(check int) "distance one" 1 (Strutil.levenshtein "ab" w))
    vs;
  let neighbours_a = Keyboard.Layout.neighbors Keyboard.Layout.us_qwerty 'a' in
  Alcotest.(check bool) "first-position substitutions are neighbours" true
    (List.for_all
       (fun w -> w.[1] <> 'b' || List.mem w.[0] neighbours_a)
       vs)

let test_case_alteration () =
  let vs = words_of (Typo.variants Typo.Case_alteration "aB3") in
  Alcotest.(check bool) "flips lower" true (List.mem "AB3" vs);
  Alcotest.(check bool) "flips upper" true (List.mem "ab3" vs);
  Alcotest.(check int) "digits not flipped" 2 (List.length vs)

let test_transposition () =
  let vs = words_of (Typo.variants Typo.Transposition "abc") in
  Alcotest.(check (list string)) "adjacent swaps" [ "bac"; "acb" ] vs

let test_transposition_skips_equal_pair () =
  let vs = words_of (Typo.variants Typo.Transposition "aab") in
  Alcotest.(check (list string)) "identical pair skipped" [ "aba" ] vs

let test_variants_never_include_original () =
  List.iter
    (fun kind ->
      List.iter
        (fun (w, _) ->
          if w = "listen" then
            Alcotest.failf "kind %s produced the original word" (Typo.kind_name kind))
        (Typo.variants kind "listen"))
    Typo.all_kinds

let test_variants_deduplicated () =
  List.iter
    (fun kind ->
      let ws = words_of (Typo.variants kind "abba") in
      Alcotest.(check int)
        (Typo.kind_name kind)
        (List.length (List.sort_uniq compare ws))
        (List.length ws))
    Typo.all_kinds

let test_random_variant_member () =
  let rng = Rng.create 17 in
  for _ = 1 to 50 do
    match Typo.random_variant rng Typo.Substitution "server" with
    | None -> Alcotest.fail "expected a variant"
    | Some (w, _) ->
      let all = words_of (Typo.variants Typo.Substitution "server") in
      Alcotest.(check bool) "member of enumeration" true (List.mem w all)
  done

let test_random_any_exhausts_empty () =
  let rng = Rng.create 17 in
  Alcotest.(check bool) "empty word has no typos" true (Typo.random_any rng "" = None)

let test_random_kind_first () =
  let rng = Rng.create 18 in
  match Typo.random_kind_first rng "value" with
  | None -> Alcotest.fail "expected a typo"
  | Some (w, descr) ->
    Alcotest.(check bool) "differs" true (w <> "value");
    Alcotest.(check bool) "labelled with a kind" true
      (List.exists
         (fun k -> Strutil.is_prefix ~prefix:(Typo.kind_name k) descr)
         Typo.all_kinds)

let test_wordview_scenarios_equivalent_to_direct () =
  (* the two-stage (word view) pipeline and the direct modify path must
     mutate configurations identically *)
  let module Node = Conftree.Node in
  let tree =
    Node.root
      [ Node.section "s" [ Node.directive ~value:"8080" "listen" ] ]
  in
  let set = Conftree.Config_set.of_list [ ("f", tree) ] in
  let via_wordview =
    Typo.wordview_scenarios ~class_prefix:"wv" ~word_type:"directive-name"
      ~kinds:[ Typo.Omission ] ~file:"f" set
  in
  let direct =
    Typo.scenarios ~class_prefix:"direct" ~part:Typo.Name ~kinds:[ Typo.Omission ]
      (Errgen.Template.target ~file:"f" "//*[kind()='directive']")
      set
  in
  Alcotest.(check int) "same scenario count" (List.length direct)
    (List.length via_wordview);
  let results scenarios =
    List.map
      (fun (s : Errgen.Scenario.t) ->
        match s.apply set with
        | Ok mutated ->
          (match Conftree.Config_set.find mutated "f" with
           | Some t ->
             (match Node.get t [ 0; 0 ] with
              | Some d -> d.Node.name
              | None -> "?")
           | None -> "?")
        | Error _ -> "!")
      scenarios
    |> List.sort compare
  in
  Alcotest.(check (list string)) "same mutations" (results direct)
    (results via_wordview)

let test_uniform_substitutions () =
  let vs = Typo.uniform_substitutions "ab" in
  Alcotest.(check bool) "larger than adjacent set" true
    (List.length vs > List.length (Typo.variants Typo.Substitution "ab"));
  List.iter
    (fun (w, _) -> Alcotest.(check int) "distance 1" 1 (Strutil.levenshtein "ab" w))
    vs

let test_dvorak_layout_changes_neighbors () =
  let qwerty_subs = Typo.variants ~layout:Keyboard.Layout.us_qwerty Typo.Substitution "port" in
  let dvorak_subs = Typo.variants ~layout:Keyboard.Layout.us_dvorak Typo.Substitution "port" in
  Alcotest.(check bool) "different slip sets" true
    (List.map fst qwerty_subs <> List.map fst dvorak_subs)

let prop_all_variants_distance_bounded =
  let kind_gen = QCheck2.Gen.oneofl Typo.all_kinds in
  QCheck2.Test.make ~name:"typo: every variant is within edit distance 2"
    QCheck2.Gen.(pair kind_gen (string_size ~gen:(char_range 'a' 'z') (int_range 1 10)))
    (fun (kind, word) ->
      List.for_all
        (fun (w, _) -> Strutil.levenshtein word w <= 2 && w <> word)
        (Typo.variants kind word))

let prop_omission_shrinks =
  QCheck2.Test.make ~name:"typo: omissions are one shorter"
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 2 12))
    (fun word ->
      List.for_all
        (fun (w, _) -> String.length w = String.length word - 1)
        (Typo.variants Typo.Omission word))

let prop_random_any_nonempty_for_letters =
  QCheck2.Test.make ~name:"typo: random_any succeeds on letter words"
    QCheck2.Gen.(pair int (string_size ~gen:(char_range 'a' 'z') (int_range 2 10)))
    (fun (seed, word) ->
      Typo.random_any (Rng.create seed) word <> None)

(* Words over an alphabet where slips collide often: letters of both
   cases, digits and punctuation next to each other on the keyboard,
   and a byte no layout can type. *)
let slip_word = QCheck2.Gen.(string_size ~gen:(oneofl (String.to_seq "aAsSdqw12-_.\200" |> List.of_seq)) (int_range 0 7))

let layouts = Keyboard.Layout.[ us_qwerty; us_dvorak; ch_qwertz ]

let prop_sampler_matches_random_any =
  QCheck2.Test.make ~count:300
    ~name:"typo: a reused sampler draws like random_any and a pick over variants"
    QCheck2.Gen.(triple int (list_size (int_range 1 12) slip_word) (oneofl layouts))
    (fun (seed, words, layout) ->
      (* draw every word of the list, several times, from one sampler:
         later draws hit the pools built by earlier ones *)
      let words = words @ words @ words in
      let sample = Typo.sampler ~layout () in
      let a = Rng.create seed and b = Rng.create seed and c = Rng.create seed in
      List.for_all
        (fun w ->
          let pool =
            List.concat_map
              (fun kind ->
                List.map
                  (fun (v, d) -> (v, Typo.kind_name kind ^ ": " ^ d))
                  (Typo.variants ~layout kind w))
              Typo.all_kinds
          in
          let drawn = sample a w in
          let same_draw = drawn = Typo.random_any ~layout b w && drawn = Rng.pick_opt c pool in
          (* and the three generators are left in the same state *)
          let next = Rng.int a 1000 in
          same_draw && next = Rng.int b 1000 && next = Rng.int c 1000)
        words)

(* The definition [Typo.corrections] answers without listing variants:
   a vocabulary word is a one-slip source when some variant of it, of
   any kind, is the typo. *)
let reference_corrections ~layout ~vocabulary word =
  let one_slip w =
    List.exists
      (fun kind -> List.exists (fun (v, _) -> v = word) (Typo.variants ~layout kind w))
      Typo.all_kinds
  in
  vocabulary
  |> List.filter_map (fun w ->
         if w = word then None
         else
           let d = Strutil.damerau_levenshtein w word in
           let slip = one_slip w in
           if slip || d <= 2 then Some (w, d, slip) else None)
  |> List.sort (fun (a, da, sa) (b, db, sb) ->
         match (sa, sb) with
         | true, false -> -1
         | false, true -> 1
         | _ ->
           let c = compare da db in
           if c <> 0 then c else compare a b)
  |> List.map (fun (w, d, _) -> (w, d))

let prop_corrections_match_enumeration =
  QCheck2.Test.make ~count:500
    ~name:"typo: corrections rank like enumerate-and-compare"
    QCheck2.Gen.(triple slip_word (list_size (int_range 0 10) slip_word) (oneofl layouts))
    (fun (word, vocabulary, layout) ->
      (* add every word one slip away from [word] in either direction,
         so one-slip sources are common *)
      let vocabulary =
        vocabulary
        @ List.concat_map
            (fun kind -> List.map fst (Typo.variants ~layout kind word))
            Typo.all_kinds
      in
      Typo.corrections ~layout ~vocabulary word
      = reference_corrections ~layout ~vocabulary word)

let suite =
  [
    Alcotest.test_case "omission" `Quick test_omission;
    Alcotest.test_case "omission short word" `Quick test_omission_short_word;
    Alcotest.test_case "insertion neighbours" `Quick test_insertion_uses_neighbors;
    Alcotest.test_case "substitution neighbours" `Quick test_substitution_uses_neighbors;
    Alcotest.test_case "case alteration" `Quick test_case_alteration;
    Alcotest.test_case "transposition" `Quick test_transposition;
    Alcotest.test_case "transposition equal pair" `Quick
      test_transposition_skips_equal_pair;
    Alcotest.test_case "never original" `Quick test_variants_never_include_original;
    Alcotest.test_case "deduplicated" `Quick test_variants_deduplicated;
    Alcotest.test_case "random variant member" `Quick test_random_variant_member;
    Alcotest.test_case "random any empty" `Quick test_random_any_exhausts_empty;
    Alcotest.test_case "random kind first" `Quick test_random_kind_first;
    Alcotest.test_case "wordview equivalence" `Quick
      test_wordview_scenarios_equivalent_to_direct;
    Alcotest.test_case "uniform substitutions" `Quick test_uniform_substitutions;
    Alcotest.test_case "dvorak layout" `Quick test_dvorak_layout_changes_neighbors;
    QCheck_alcotest.to_alcotest prop_all_variants_distance_bounded;
    QCheck_alcotest.to_alcotest prop_omission_shrinks;
    QCheck_alcotest.to_alcotest prop_random_any_nonempty_for_letters;
    QCheck_alcotest.to_alcotest prop_sampler_matches_random_any;
    QCheck_alcotest.to_alcotest prop_corrections_match_enumeration;
  ]
