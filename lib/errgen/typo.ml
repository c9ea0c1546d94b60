module Node = Conftree.Node
module Strutil = Conferr_util.Strutil
module Rng = Conferr_util.Rng
module Layout = Keyboard.Layout

type kind = Omission | Insertion | Substitution | Case_alteration | Transposition

let all_kinds = [ Omission; Insertion; Substitution; Case_alteration; Transposition ]

let kind_name = function
  | Omission -> "omission"
  | Insertion -> "insertion"
  | Substitution -> "substitution"
  | Case_alteration -> "case-alteration"
  | Transposition -> "transposition"

let default_layout = Layout.us_qwerty

(* One concrete slip, kept instead of its description: only a variant
   that is actually drawn or listed ever needs the text. *)
type slip =
  | Omit of int
  | Double of int
  | Insert_before of char * int
  | Insert_after of char * int
  | Substitute of char * int
  | Flip of int
  | Transpose of int

let kind_of = function
  | Omit _ -> Omission
  | Double _ | Insert_before _ | Insert_after _ -> Insertion
  | Substitute _ -> Substitution
  | Flip _ -> Case_alteration
  | Transpose _ -> Transposition

let describe word = function
  | Omit i -> Printf.sprintf "omit %C at position %d" word.[i] i
  | Double i -> Printf.sprintf "double %C at position %d" word.[i] i
  | Insert_before (c, i) -> Printf.sprintf "insert %C before position %d" c i
  | Insert_after (c, i) -> Printf.sprintf "insert %C after position %d" c i
  | Substitute (c, i) -> Printf.sprintf "substitute %C for %C at position %d" c word.[i] i
  | Flip i -> Printf.sprintf "flip case of %C at position %d" word.[i] i
  | Transpose i -> Printf.sprintf "transpose positions %d and %d" i (i + 1)

let describe_with_kind word slip =
  Printf.sprintf "%s: %s" (kind_name (kind_of slip)) (describe word slip)

(* Keep the first occurrence of each mutated word, never the original. *)
let dedup_variants word variants =
  let seen = Hashtbl.create 16 in
  Hashtbl.add seen word ();
  List.filter
    (fun (w, _) ->
      if Hashtbl.mem seen w then false
      else begin
        Hashtbl.add seen w ();
        true
      end)
    variants

let letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

(* The one enumerator of the typo space: every distinct slip of one
   kind, in a fixed order. *)
let enumerate ?(include_doubling = false) layout kind word =
  let n = String.length word in
  let per_position f = List.concat (List.init n f) in
  let raw =
    match kind with
    | Omission ->
      if n <= 1 then [] else List.init n (fun i -> (Strutil.delete_char word i, Omit i))
    | Insertion ->
      (* The spurious character comes from a key adjacent to the
         character being typed when the slip happens (paper §4.1).
         Same-key doubling is a realistic extension beyond the paper's
         model, available opt-in. *)
      per_position (fun i ->
          let doubled =
            if include_doubling then [ (Strutil.insert_char word i word.[i], Double i) ]
            else []
          in
          doubled
          @ List.concat_map
              (fun c ->
                [
                  (Strutil.insert_char word i c, Insert_before (c, i));
                  (Strutil.insert_char word (i + 1) c, Insert_after (c, i));
                ])
              (Layout.neighbors layout word.[i]))
    | Substitution ->
      per_position (fun i ->
          List.map
            (fun c -> (Strutil.replace_char word i c, Substitute (c, i)))
            (Layout.neighbors layout word.[i]))
    | Case_alteration ->
      per_position (fun i ->
          let c = word.[i] in
          if not (letter c) then []
          else
            match Layout.shift_variant layout c with
            | Some flipped when flipped <> c -> [ (Strutil.replace_char word i flipped, Flip i) ]
            | Some _ | None -> [])
    | Transposition ->
      List.concat
        (List.init (max 0 (n - 1)) (fun i ->
             if word.[i] = word.[i + 1] then [] else [ (Strutil.swap_chars word i, Transpose i) ]))
  in
  dedup_variants word raw

(* Ablation variant: substitutions drawn from the whole layout instead of
   the adjacent keys — what a keyboard-oblivious fuzzer would inject. *)
let uniform_substitutions ?(layout = default_layout) word =
  let chars = Layout.all_chars layout in
  List.concat
    (List.init (String.length word) (fun i ->
         chars
         |> List.filter (fun c -> c <> word.[i])
         |> List.map (fun c ->
                ( Strutil.replace_char word i c,
                  Printf.sprintf "substitute %C for %C at position %d (uniform)" c
                    word.[i] i ))))
  |> dedup_variants word

let variants ?(layout = default_layout) ?include_doubling kind word =
  List.map
    (fun (w, slip) -> (w, describe word slip))
    (enumerate ?include_doubling layout kind word)

let random_variant ?(layout = default_layout) rng kind word =
  Option.map
    (fun (w, slip) -> (w, describe word slip))
    (Rng.pick_opt rng (enumerate layout kind word))

let sampler ?(layout = default_layout) () =
  (* Uniform over the whole one-letter typo space: kinds with more
     concrete slips (substitutions, insertions) are proportionally more
     likely, as when drawing a random subset of typos (paper §4.1).
     Each word's pool is built once, on its first draw. *)
  let pools = Hashtbl.create 64 in
  fun rng word ->
    let pool =
      match Hashtbl.find_opt pools word with
      | Some pool -> pool
      | None ->
        let pool =
          Array.of_list (List.concat_map (fun kind -> enumerate layout kind word) all_kinds)
        in
        Hashtbl.add pools word pool;
        pool
    in
    if Array.length pool = 0 then None
    else
      let w, slip = pool.(Rng.int rng (Array.length pool)) in
      Some (w, describe_with_kind word slip)

let random_any ?layout rng word = sampler ?layout () rng word

let random_kind_first ?(layout = default_layout) rng word =
  (* Uniform over kinds first, then over that kind's variants: each
     submodel is equally represented regardless of how many concrete
     slips it has (used by the §5.5 benchmark, which draws exactly one
     typo per experiment). *)
  let non_empty =
    List.filter_map
      (fun kind -> match enumerate layout kind word with [] -> None | vs -> Some vs)
      all_kinds
  in
  match Rng.pick_opt rng non_empty with
  | None -> None
  | Some vs ->
    Option.map (fun (w, slip) -> (w, describe_with_kind word slip)) (Rng.pick_opt rng vs)

type part = Name | Value

let directive_only (n : Node.t) = n.kind = Node.kind_directive

let mutate_part layout ~class_suffix part make_variants (n : Node.t) =
  if not (directive_only n) then []
  else
    match part with
    | Name ->
      make_variants layout n.name
      |> List.map (fun (w, d) ->
             ({ n with Node.name = w }, Printf.sprintf "%s in name: %s" class_suffix d))
    | Value ->
      (match n.value with
       | None -> []
       | Some v ->
         make_variants layout v
         |> List.map (fun (w, d) ->
                ( { n with Node.value = Some w },
                  Printf.sprintf "%s in value: %s" class_suffix d )))

let scenarios ?(layout = default_layout) ~class_prefix ~part ~kinds tgt set =
  kinds
  |> List.concat_map (fun kind ->
         let class_name = Printf.sprintf "%s/%s" class_prefix (kind_name kind) in
         Template.modify ~class_name
           ~mutate:
             (mutate_part layout ~class_suffix:(kind_name kind) part
                (fun layout w -> variants ~layout kind w))
           tgt set)

(* The paper's two-stage pipeline (§3.2 / Figure 2.c): map the
   structural tree to the word-token view, mutate tokens there, and let
   the stored back-references rewrite the original tree.  Functionally
   equivalent to the direct path above — asserted by tests — but
   demonstrates the representation-mapping architecture end to end. *)
let wordview_scenarios ?(layout = default_layout) ~class_prefix ~word_type ~kinds ~file
    set =
  match Conftree.Config_set.find set file with
  | None -> []
  | Some tree ->
    let view = Wordview.of_tree tree in
    Wordview.words ~word_type view
    |> List.concat_map (fun (token_path, (token : Node.t)) ->
           let text = Node.value_or ~default:"" token in
           kinds
           |> List.concat_map (fun kind ->
                  variants ~layout kind text
                  |> List.map (fun (mutated, what) ->
                         Scenario.make ~id:""
                           ~class_name:
                             (Printf.sprintf "%s/%s" class_prefix (kind_name kind))
                           ~description:
                             (Printf.sprintf "%s: %s in %s token %S of %s"
                                (kind_name kind) what word_type text file)
                           (fun set ->
                             match Conftree.Config_set.find set file with
                             | None -> Error (Printf.sprintf "file %S missing" file)
                             | Some tree ->
                               let view = Wordview.of_tree tree in
                               (match
                                  Node.update view token_path (fun w ->
                                      { w with Node.value = Some mutated })
                                with
                                | None -> Error "word token vanished from the view"
                                | Some view' ->
                                  (match Wordview.apply_to_tree ~word_view:view' tree with
                                   | Error msg -> Error msg
                                   | Ok tree' ->
                                     Ok (Conftree.Config_set.add set file tree')))))))

let sampled_scenarios ?(layout = default_layout) ~rng ~per_target ~class_prefix ~part tgt
    set =
  let sample = sampler ~layout () in
  let mutate (n : Node.t) =
    if not (directive_only n) then []
    else begin
      let word =
        match part with Name -> Some n.name | Value -> n.value
      in
      match word with
      | None -> []
      | Some w ->
        List.init per_target (fun _ -> sample rng w)
        |> List.filter_map Fun.id
        |> List.map (fun (mutated, descr) ->
               let node =
                 match part with
                 | Name -> { n with Node.name = mutated }
                 | Value -> { n with Node.value = Some mutated }
               in
               (node, descr))
    end
  in
  Template.modify ~class_name:(Printf.sprintf "%s/sampled" class_prefix) ~mutate tgt set

(* Whether some variant of [from] (any kind, {!enumerate}) is exactly
   [typo], decided from the two words' lengths and the positions where
   they differ instead of by listing the variants. *)
let one_slip layout ~from typo =
  let n = String.length from and m = String.length typo in
  (* length of the common prefix, and of the common suffix *)
  let rec prefix i = if i < n && i < m && from.[i] = typo.[i] then prefix (i + 1) else i in
  let rec suffix k =
    if k < n && k < m && from.[n - 1 - k] = typo.[m - 1 - k] then suffix (k + 1) else k
  in
  let p = prefix 0 and q = suffix 0 in
  let adjacent a b = List.mem b (Layout.neighbors layout a) in
  if m = n - 1 then
    (* omission: dropping from.[p] leaves typo *)
    n >= 2 && p + q >= m
  else if m = n + 1 then
    (* insertion: typo.[i] inserted at i, keyed next to the character
       it went before (from.[i]) or after (from.[i - 1]) *)
    let rec inserted i =
      i <= p
      && ((q >= n - i
           && ((i < n && adjacent from.[i] typo.[i]) || (i > 0 && adjacent from.[i - 1] typo.[i])))
          || inserted (i + 1))
    in
    inserted 0
  else if m = n && p < n then
    if p + q + 1 = n then
      (* one differing position: substitution or case alteration *)
      adjacent from.[p] typo.[p]
      || (letter from.[p] && Layout.shift_variant layout from.[p] = Some typo.[p])
    else
      (* transposition of p and p + 1 *)
      p + q + 2 = n && from.[p] = typo.[p + 1] && from.[p + 1] = typo.[p]
  else false

(* Reverse mode (doc/repair.md): rank the vocabulary words a typo could
   have come from.  One-slip explanations (the forward model reproduces
   the word exactly) sort ahead of bare edit-distance neighbours. *)
let corrections ?(layout = default_layout) ?(max_distance = 2) ~vocabulary word =
  vocabulary
  |> List.filter_map (fun w ->
         if w = word then None
         else
           let d = Conferr_util.Strutil.damerau_levenshtein w word in
           let slip = one_slip layout ~from:w word in
           if slip || d <= max_distance then Some (w, d, slip) else None)
  |> List.sort (fun (a, da, sa) (b, db, sb) ->
         match (sa, sb) with
         | true, false -> -1
         | false, true -> 1
         | _ ->
           let c = compare da db in
           if c <> 0 then c else compare a b)
  |> List.map (fun (w, d, _) -> (w, d))
