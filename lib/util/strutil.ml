(* [sub] occurs in [s] at [i]; the caller checks that it fits. *)
let occurs_at s i sub =
  let n = String.length sub in
  let rec from k = k = n || (s.[i + k] = sub.[k] && from (k + 1)) in
  from 0

let is_prefix ~prefix s =
  String.length s >= String.length prefix && occurs_at s 0 prefix

let drop_prefix ~prefix s =
  if is_prefix ~prefix s then
    Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

let split_on_first c s =
  match String.index_opt s c with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let trim = String.trim

let fields s =
  let blank c = c = ' ' || c = '\t' in
  (* scan right to left so the list comes out in order *)
  let rec scan j acc =
    if j = 0 then acc
    else if blank s.[j - 1] then scan (j - 1) acc
    else
      let i = ref (j - 1) in
      while !i > 0 && not (blank s.[!i - 1]) do
        decr i
      done;
      scan !i (String.sub s !i (j - !i) :: acc)
  in
  scan (String.length s) []

let lowercase = String.lowercase_ascii

(* The four one-character edits copy [s] once into a fresh buffer. *)
let insert_char s i c =
  let n = String.length s in
  if i < 0 || i > n then invalid_arg "Strutil.insert_char";
  let b = Bytes.create (n + 1) in
  Bytes.blit_string s 0 b 0 i;
  Bytes.set b i c;
  Bytes.blit_string s i b (i + 1) (n - i);
  Bytes.unsafe_to_string b

let delete_char s i =
  let n = String.length s in
  if i < 0 || i >= n then invalid_arg "Strutil.delete_char";
  let b = Bytes.create (n - 1) in
  Bytes.blit_string s 0 b 0 i;
  Bytes.blit_string s (i + 1) b i (n - i - 1);
  Bytes.unsafe_to_string b

let replace_char s i c =
  if i < 0 || i >= String.length s then invalid_arg "Strutil.replace_char";
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.unsafe_to_string b

let swap_chars s i =
  if i < 0 || i + 1 >= String.length s then invalid_arg "Strutil.swap_chars";
  let b = Bytes.of_string s in
  Bytes.set b i s.[i + 1];
  Bytes.set b (i + 1) s.[i];
  Bytes.unsafe_to_string b

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) (fun j -> j) in
  let curr = Array.make (lb + 1) 0 in
  for i = 1 to la do
    curr.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      curr.(j) <- min (min (prev.(j) + 1) (curr.(j - 1) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit curr 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let damerau_levenshtein a b =
  (* optimal string alignment: substitution, insertion, deletion, and
     adjacent transposition, all unit cost *)
  let la = String.length a and lb = String.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do
    d.(i).(0) <- i
  done;
  for j = 0 to lb do
    d.(0).(j) <- j
  done;
  for i = 1 to la do
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      d.(i).(j) <-
        min (min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1)) (d.(i - 1).(j - 1) + cost);
      if i > 1 && j > 1 && a.[i - 1] = b.[j - 2] && a.[i - 2] = b.[j - 1] then
        d.(i).(j) <- min d.(i).(j) (d.(i - 2).(j - 2) + 1)
    done
  done;
  d.(la).(lb)

let lines s =
  match String.split_on_char '\n' s with
  | [] -> []
  | parts ->
    (* Drop the empty fragment produced by a trailing newline. *)
    let rec strip_last = function
      | [ "" ] -> []
      | [] -> []
      | x :: rest -> x :: strip_last rest
    in
    strip_last parts

let unlines = function
  | [] -> ""
  | ls -> String.concat "\n" ls ^ "\n"

let pad_right n s =
  if String.length s >= n then s else s ^ String.make (n - String.length s) ' '

let contains_substring ~needle hay =
  let ln = String.length needle and lh = String.length hay in
  let rec from i = i <= lh - ln && (occurs_at hay i needle || from (i + 1)) in
  from 0

let repeat n s =
  let b = Buffer.create (n * String.length s) in
  for _ = 1 to n do
    Buffer.add_string b s
  done;
  Buffer.contents b
