module Node = Conftree.Node
module Strutil = Conferr_util.Strutil

let attr_arg = "arg"

type frame = { name : string; arg : string; mutable nodes : Node.t list }

let parse text =
  let push frame node = frame.nodes <- node :: frame.nodes in
  let finish frame =
    Node.section
      ~attrs:(if frame.arg = "" then [] else [ (attr_arg, frame.arg) ])
      frame.name
      (List.rev frame.nodes)
  in
  let root_frame = { name = ""; arg = ""; nodes = [] } in
  let stack = ref [ root_frame ] in
  let error = ref None in
  let fail lineno msg = if !error = None then error := Some (Parse_error.make ~line:lineno msg) in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let trimmed = Strutil.trim line in
      let top () = match !stack with f :: _ -> f | [] -> root_frame in
      if !error <> None then ()
      else if trimmed = "" then push (top ()) Node.blank
      else if trimmed.[0] = '#' then push (top ()) (Node.comment line)
      else if Strutil.is_prefix ~prefix:"</" trimmed then begin
        let inner = String.sub trimmed 2 (String.length trimmed - 2) in
        let name =
          match String.index_opt inner '>' with
          | Some j -> Strutil.trim (String.sub inner 0 j)
          | None -> Strutil.trim inner
        in
        match !stack with
        | frame :: (parent :: _ as rest) ->
          if String.lowercase_ascii frame.name <> String.lowercase_ascii name then
            fail lineno
              (Printf.sprintf "closing tag </%s> does not match open section <%s>" name
                 frame.name)
          else begin
            stack := rest;
            push parent (finish frame)
          end
        | [ _ ] | [] -> fail lineno (Printf.sprintf "stray closing tag </%s>" name)
      end
      else if trimmed.[0] = '<' then begin
        match String.index_opt trimmed '>' with
        | None -> fail lineno "unterminated section tag"
        | Some j ->
          let inner = String.sub trimmed 1 (j - 1) in
          let name, arg =
            match Strutil.split_on_first ' ' inner with
            | Some (n, a) -> (Strutil.trim n, Strutil.trim a)
            | None -> (Strutil.trim inner, "")
          in
          stack := { name; arg; nodes = [] } :: !stack
      end
      else begin
        (* The name ends at the first blank (space or tab). *)
        let split_idx =
          let rec find i =
            if i >= String.length trimmed then None
            else if trimmed.[i] = ' ' || trimmed.[i] = '\t' then Some i
            else find (i + 1)
          in
          find 0
        in
        let name, value =
          match split_idx with
          | Some i ->
            ( String.sub trimmed 0 i,
              Some (Strutil.trim (String.sub trimmed i (String.length trimmed - i))) )
          | None -> (trimmed, None)
        in
        push (top ()) (Node.directive ?value name)
      end)
    (Strutil.lines text);
  match !error with
  | Some e -> Error e
  | None ->
    (match !stack with
     | [ root ] -> Ok (Node.root (List.rev root.nodes))
     | frame :: _ ->
       Error (Parse_error.make (Printf.sprintf "section <%s> is never closed" frame.name))
     | [] -> Error (Parse_error.make "internal parser error: empty stack"))

let serialize (tree : Node.t) =
  let buf = Buffer.create 512 in
  let pad indent =
    for _ = 1 to 2 * indent do
      Buffer.add_char buf ' '
    done
  in
  let rec emit indent (n : Node.t) =
    match n.kind with
    | k when k = Node.kind_blank -> Buffer.add_char buf '\n'
    | k when k = Node.kind_comment ->
      Buffer.add_string buf (Node.value_or ~default:"#" n);
      Buffer.add_char buf '\n'
    | k when k = Node.kind_directive ->
      pad indent;
      Buffer.add_string buf n.name;
      (match n.value with
       | None -> ()
       | Some v ->
         (* A "sep" attribute lets whitespace variations round-trip. *)
         Buffer.add_string buf (Option.value ~default:" " (Node.attr n "sep"));
         Buffer.add_string buf v);
      Buffer.add_char buf '\n'
    | k when k = Node.kind_section ->
      pad indent;
      Buffer.add_char buf '<';
      Buffer.add_string buf n.name;
      (match Node.attr n attr_arg with
       | Some arg ->
         Buffer.add_char buf ' ';
         Buffer.add_string buf arg
       | None -> ());
      Buffer.add_string buf ">\n";
      List.iter (emit (indent + 1)) n.children;
      pad indent;
      Buffer.add_string buf "</";
      Buffer.add_string buf n.name;
      Buffer.add_string buf ">\n"
    | k -> raise (Failure (Printf.sprintf "cannot express %s nodes" k))
  in
  try
    List.iter (emit 0) tree.children;
    Ok (Buffer.contents buf)
  with Failure msg -> Error msg
