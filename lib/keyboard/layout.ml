type key = { row : int; col : float; unshifted : char; shifted : char option }

type modifier = Plain | Shifted

(* Both tables are indexed by character code and filled once, when the
   layout is made: [located] answers [find], [adjacent] answers
   [neighbors]. *)
type t = {
  name : string;
  keys : key list;
  located : (key * modifier) option array;
  adjacent : char list array;
}

(* Keys whose centres lie within this many key-widths are adjacent. *)
let adjacency_radius = 1.35

let distance a b =
  let dr = float_of_int (a.row - b.row) and dc = a.col -. b.col in
  Float.sqrt ((dr *. dr) +. (dc *. dc))

let char_under_modifier k = function
  | Plain -> Some k.unshifted
  | Shifted -> k.shifted

(* Into a sorted list without duplicates. *)
let rec insert_sorted (c : char) = function
  | [] -> [ c ]
  | x :: rest as l -> if c < x then c :: l else if c = x then l else x :: insert_sorted c rest

let make ~name rows =
  let row_keys (row, start, unshifted, shifted) =
    if String.length unshifted <> String.length shifted then
      invalid_arg "Layout.make: row strings must have equal length";
    ( row,
      start,
      Array.init (String.length unshifted) (fun i ->
          {
            row;
            col = start +. float_of_int i;
            unshifted = unshifted.[i];
            shifted = Some shifted.[i];
          }) )
  in
  let specs = List.map row_keys rows in
  let keys = List.concat_map (fun (_, _, ks) -> Array.to_list ks) specs in
  (* The first key in row order that produces a character owns it, and
     on that key the unshifted binding wins. *)
  let located = Array.make 256 None in
  let claim k c modifier =
    if located.(Char.code c) = None then located.(Char.code c) <- Some (k, modifier)
  in
  List.iter
    (fun k ->
      claim k k.unshifted Plain;
      Option.iter (fun s -> claim k s Shifted) k.shifted)
    keys;
  (* A key within the radius sits in the same or an adjacent row, at
     most [adjacency_radius] columns away: only those few candidates
     are measured.  Each key's neighbours are found once, then read
     under every modifier whose character the key owns. *)
  let adjacent = Array.make 256 [] in
  List.iter
    (fun key ->
      let near = ref [] in
      List.iter
        (fun (row, start, ks) ->
          if abs (row - key.row) <= 1 then
            for
              j = max 0 (int_of_float (Float.ceil (key.col -. start -. adjacency_radius)))
              to min (Array.length ks - 1)
                   (int_of_float (Float.floor (key.col -. start +. adjacency_radius)))
            do
              let k = ks.(j) in
              if (not (k == key)) && distance k key <= adjacency_radius then near := k :: !near
            done)
        specs;
      let bind c modifier =
        match located.(Char.code c) with
        | Some (owner, m) when owner == key && m = modifier ->
          adjacent.(Char.code c) <-
            List.fold_left
              (fun acc k ->
                match char_under_modifier k modifier with
                | Some ch when ch <> c -> insert_sorted ch acc
                | Some _ | None -> acc)
              [] !near
        | Some _ | None -> ()
      in
      bind key.unshifted Plain;
      Option.iter (fun s -> bind s Shifted) key.shifted)
    keys;
  { name; keys; located; adjacent }

(* ANSI staggering: each letter row shifts right relative to the digit
   row. *)
let us_qwerty =
  make ~name:"us-qwerty"
    [
      (0, 0.0, "`1234567890-=", "~!@#$%^&*()_+");
      (1, 1.5, "qwertyuiop[]\\", "QWERTYUIOP{}|");
      (2, 1.75, "asdfghjkl;'", "ASDFGHJKL:\"");
      (3, 2.25, "zxcvbnm,./", "ZXCVBNM<>?");
    ]

let us_dvorak =
  make ~name:"us-dvorak"
    [
      (0, 0.0, "`1234567890[]", "~!@#$%^&*(){}");
      (1, 1.5, "',.pyfgcrl/=\\", "\"<>PYFGCRL?+|");
      (2, 1.75, "aoeuidhtns-", "AOEUIDHTNS_");
      (3, 2.25, ";qjkxbmwvz", ":QJKXBMWVZ");
    ]

let ch_qwertz =
  make ~name:"ch-qwertz"
    [
      (0, 0.0, "\1671234567890'^", "\176+\"*\231%&/()=?`");
      (1, 1.5, "qwertzuiop\232\168", "QWERTZUIOP\252!");
      (2, 2.0, "asdfghjkl\233\224", "ASDFGHJKL\246\228");
      (3, 2.5, "yxcvbnm,.-", "YXCVBNM;:_");
    ]

let name t = t.name

let find t c = t.located.(Char.code c)

let neighbors t c = t.adjacent.(Char.code c)

let shift_variant t c =
  match find t c with
  | None -> None
  | Some (key, Plain) -> key.shifted
  | Some (key, Shifted) -> Some key.unshifted

let can_type t c = find t c <> None

let all_chars t =
  List.concat_map
    (fun k -> k.unshifted :: (match k.shifted with None -> [] | Some s -> [ s ]))
    t.keys
  |> List.sort_uniq Char.compare
