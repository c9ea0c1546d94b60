module Rule = Conferr_lint.Rule
module Finding = Conferr_lint.Finding
module Node = Conftree.Node
module Config_set = Conftree.Config_set
module Strutil = Conferr_util.Strutil

let raw ?suggestion ~file ~path message =
  {
    Rule.raw_file = file;
    raw_path = path;
    raw_message = message;
    raw_suggestion = suggestion;
  }

(* ------------------------------------------------------------------ *)
(* PostgreSQL                                                           *)
(* ------------------------------------------------------------------ *)

let pg_file = "postgresql.conf"

(* The paper's stock postgresql.conf.  Deleting any of these reverts
   silently to the built-in default: the server's only silent gap. *)
let pg_stock =
  [
    "max_connections";
    "shared_buffers";
    "max_fsm_pages";
    "max_fsm_relations";
    "datestyle";
    "lc_messages";
    "log_timezone";
    "listen_addresses";
  ]

let pg_out_of_range name n lo hi =
  Printf.sprintf "%d is outside the valid range for parameter \"%s\" (%d .. %d)"
    n name lo hi

(* Exactly the server's own validation (Mini_pg.apply_directive), as a
   message-returning check. *)
let pg_check name (spec : Mini_pg.spec) v =
  match spec with
  | Pint { min; max; _ } -> (
    match Mini_pg.parse_strict_int name v with
    | Error m -> Some m
    | Ok n -> if n < min || n > max then Some (pg_out_of_range name n min max) else None)
  | Pmem { min_kb; max_kb; _ } -> (
    match Mini_pg.parse_mem name v with
    | Error m -> Some m
    | Ok n ->
      if n < min_kb || n > max_kb then Some (pg_out_of_range name n min_kb max_kb)
      else None)
  | Ptime { min_ms; max_ms; _ } -> (
    match Mini_pg.parse_time name v with
    | Error m -> Some m
    | Ok n ->
      if n < min_ms || n > max_ms then Some (pg_out_of_range name n min_ms max_ms)
      else None)
  | Pfloat { fmin; fmax; _ } -> (
    match Mini_pg.parse_float_strict name v with
    | Error m -> Some m
    | Ok f ->
      if f < fmin || f > fmax then
        Some
          (Printf.sprintf "%g is outside the valid range for parameter \"%s\"" f name)
      else None)
  | Pbool _ -> (
    match String.lowercase_ascii v with
    | "on" | "off" | "true" | "false" | "yes" | "no" | "1" | "0" -> None
    | _ -> Some (Printf.sprintf "parameter \"%s\" requires a Boolean value" name))
  | Penum _ when name = "datestyle" ->
    if Mini_pg.valid_datestyle v then None
    else Some (Printf.sprintf "invalid value for parameter \"datestyle\": \"%s\"" v)
  | Penum (allowed, _) ->
    if List.mem (String.lowercase_ascii v) allowed then None
    else Some (Printf.sprintf "invalid value for parameter \"%s\": \"%s\"" name v)
  | Pstring (validate, _) ->
    if validate v then None
    else Some (Printf.sprintf "invalid value for parameter \"%s\": \"%s\"" name v)

let pg_expect : Mini_pg.spec -> string = function
  | Pint { min; max; _ } -> Printf.sprintf "an integer in %d..%d" min max
  | Pmem _ -> "an amount with an exact kB/MB/GB unit (bare numbers are 8kB pages)"
  | Ptime _ -> "a duration with an ms/s/min/h/d unit (bare numbers are ms)"
  | Pfloat _ -> "a decimal number"
  | Pbool _ -> "a boolean word"
  | Penum _ -> "a known keyword list"
  | Pstring _ -> "a known value"

let pg_syntax =
  Rule.make ~id:"PG-SYNTAX" ~severity:Finding.Error
    ~doc:"a [section] header is not valid postgresql.conf syntax (agreement)"
    (Rule.Check_set
       (fun set ->
         match Config_set.find set pg_file with
         | None -> []
         | Some root ->
           List.concat
             (List.mapi
                (fun i (n : Node.t) ->
                  if
                    n.kind = Node.kind_directive
                    && String.length n.name > 0
                    && n.name.[0] = '['
                  then
                    [
                      raw ~file:pg_file ~path:[ i ]
                        (Printf.sprintf "syntax error in configuration near \"%s\""
                           n.name);
                    ]
                  else [])
                root.children)))

let pg_unknown =
  Rule.make ~id:"PG-UNKNOWN" ~severity:Finding.Error
    ~doc:"unknown parameter names abort startup with FATAL (agreement)"
    (Rule.Unknown
       {
         target = Rule.in_file pg_file;
         kind = Node.kind_directive;
         known =
           (fun n ->
             (* '['-headers are PG-SYNTAX's, not an unknown name *)
             (String.length n > 0 && n.[0] = '[')
             || List.mem_assoc (String.lowercase_ascii n) Mini_pg.specs);
         vocabulary = Vocabulary.postgres;
         what = "parameter";
       })

let pg_value_rules =
  List.map
    (fun (name, spec) ->
      Rule.make ~id:"PG-VALUE" ~severity:Finding.Error
        ~doc:(Printf.sprintf "'%s' takes %s (agreement)" name (pg_expect spec))
        (Rule.Value
           {
             target = Rule.in_file pg_file;
             name;
             canon = Rule.lower;
             vtype = Rule.Custom { expect = pg_expect spec; check = pg_check name spec };
             missing = pg_check name spec "";
           }))
    Mini_pg.specs

let pg_lookup_int lookup name default =
  match lookup name with
  | None -> default
  | Some v -> ( match Mini_pg.parse_strict_int name v with Ok n -> n | Error _ -> default)

let pg_cross_fsm =
  Rule.make ~id:"PG-CROSS" ~severity:Finding.Error
    ~doc:"max_fsm_pages must be at least 16 * max_fsm_relations (agreement)"
    (Rule.Implies
       {
         target = Rule.in_file pg_file;
         anchor = Some "max_fsm_pages";
         canon = Rule.lower;
         check =
           (fun ~lookup ->
             let pages = pg_lookup_int lookup "max_fsm_pages" 153600 in
             let relations = pg_lookup_int lookup "max_fsm_relations" 1000 in
             if pages < 16 * relations then
               Some
                 (Printf.sprintf
                    "max_fsm_pages must be at least 16 * max_fsm_relations (%d < 16 \
                     * %d)"
                    pages relations)
             else None);
       })

let pg_cross_shmem =
  Rule.make ~id:"PG-CROSS" ~severity:Finding.Error
    ~doc:"shared_buffers must cover max_connections bookkeeping (agreement)"
    (Rule.Implies
       {
         target = Rule.in_file pg_file;
         anchor = Some "shared_buffers";
         canon = Rule.lower;
         check =
           (fun ~lookup ->
             let shared_kb =
               match lookup "shared_buffers" with
               | None -> 24 * 1024
               | Some v -> (
                 match Mini_pg.parse_mem "shared_buffers" v with
                 | Ok n -> n
                 | Error _ -> 24 * 1024)
             in
             let conns = pg_lookup_int lookup "max_connections" 100 in
             if shared_kb < conns * 16 then
               Some
                 (Printf.sprintf
                    "insufficient shared memory for max_connections = %d \
                     (shared_buffers = %dkB)"
                    conns shared_kb)
             else None);
       })

let pg_required_rules =
  List.map
    (fun name ->
      Rule.make ~id:"PG-REQUIRED" ~severity:Finding.Warning
        ~doc:
          (Printf.sprintf
             "the stock configuration sets '%s'; deleting it silently reverts to \
              the built-in default (gap)"
             name)
        (Rule.Required
           { target = Rule.anywhere; file = pg_file; name; canon = Rule.lower }))
    pg_stock

let pg_dup =
  Rule.make ~id:"PG-DUP" ~severity:Finding.Warning
    ~doc:"a repeated parameter is silently last-one-wins (gap)"
    (Rule.No_duplicates
       { target = Rule.in_file pg_file; names = None; canon = Rule.lower })

let postgres =
  (pg_syntax :: pg_unknown :: pg_dup :: pg_cross_fsm :: pg_cross_shmem
 :: pg_value_rules)
  @ pg_required_rules

(* ------------------------------------------------------------------ *)
(* MySQL                                                                *)
(* ------------------------------------------------------------------ *)

let my_file = "my.cnf"

(* Sections some tool of the shipped install reads.  Matching is exact,
   like the server's own reader: [MySQLd] is a different — dead —
   section. *)
let my_sections = [ "mysqld"; "mysqldump"; "mysqld_safe"; "client"; "mysql"; "isamchk" ]

let my_safe_options = [ "log_error"; "pid_file"; "nice" ]

let ini_sections (root : Node.t) =
  List.mapi (fun i n -> (i, n)) root.children
  |> List.filter (fun (_, (n : Node.t)) -> n.kind = Node.kind_section)

let ini_directives (si, (s : Node.t)) =
  List.mapi (fun j d -> ([ si; j ], d)) s.children
  |> List.filter (fun (_, (d : Node.t)) -> d.kind = Node.kind_directive)

let my_section_directives set name =
  match Config_set.find set my_file with
  | None -> []
  | Some root ->
    ini_sections root
    |> List.filter (fun (_, (s : Node.t)) -> s.name = name)
    |> List.concat_map ini_directives

(* Shape analysis of a [mysqld] numeric value: what the quirky parsers
   (Mini_mysql.parse_size/parse_int) will do with it, with the silent
   cases told apart. *)
type my_shape =
  | Sh_ok
  | Sh_missing  (** no value: silently defaulted *)
  | Sh_silent of string  (** value present but entirely ignored *)
  | Sh_junk of string  (** value partially honored *)
  | Sh_bad of string  (** the daemon rejects it at startup *)

let my_is_digit c = c >= '0' && c <= '9'

let my_mult c =
  match Char.uppercase_ascii c with
  | 'K' -> Some 1024L
  | 'M' -> Some 1048576L
  | 'G' -> Some 1073741824L
  | _ -> None

let my_not_a_number v = Printf.sprintf "Wrong value: %S is not a number" v

let my_size_shape (b : Mini_mysql.bounds) v =
  let v = Strutil.trim v in
  if v = "" then Sh_missing
  else if my_mult v.[0] <> None then
    Sh_silent
      (Printf.sprintf
         "value '%s' starts with a multiplier; it is silently replaced by the \
          built-in default"
         v)
  else if not (my_is_digit v.[0]) then Sh_bad (my_not_a_number v)
  else begin
    let len = String.length v in
    let rec digits i = if i < len && my_is_digit v.[i] then digits (i + 1) else i in
    let stop = digits 0 in
    match Int64.of_string_opt (String.sub v 0 stop) with
    | None -> Sh_bad (my_not_a_number v)
    | Some n ->
      if stop = len then
        if n >= b.min && n <= b.max then Sh_ok
        else
          Sh_silent
            (Printf.sprintf
               "value %Ld is outside [%Ld, %Ld]; it is silently replaced by the \
                built-in default"
               n b.min b.max)
      else (
        match my_mult v.[stop] with
        | None -> Sh_bad (my_not_a_number v)
        | Some m ->
          let n = Int64.mul n m in
          if n < b.min || n > b.max then
            Sh_silent
              (Printf.sprintf
                 "value '%s' (%Ld) is outside [%Ld, %Ld]; it is silently replaced \
                  by the built-in default"
                 v n b.min b.max)
          else if stop + 1 < len then
            Sh_junk
              (Printf.sprintf
                 "text after the '%c' multiplier in '%s' is silently dropped \
                  (parsed as %Ld)"
                 v.[stop] v n)
          else Sh_ok)
  end

let my_int_shape (b : Mini_mysql.bounds) v =
  let v = Strutil.trim v in
  if v = "" then Sh_missing
  else if String.for_all my_is_digit v && String.length v <= 18 then begin
    let n = Int64.of_string v in
    if n >= b.min && n <= b.max then Sh_ok
    else
      Sh_silent
        (Printf.sprintf
           "value %Ld is outside [%Ld, %Ld]; it is silently replaced by the \
            built-in default"
           n b.min b.max)
  end
  else Sh_bad (my_not_a_number v)

(* Classify one [mysqld] directive.  [None] when the name does not
   resolve (MY-UNKNOWN's business). *)
let my_shape_of (d : Node.t) =
  match Mini_mysql.resolve_name d.name with
  | `Unknown | `Ambiguous -> None
  | `Known full ->
    let v = Option.value ~default:"" d.value in
    Some
      ( full,
        match List.assoc full Mini_mysql.mysqld_specs with
        | Size b -> my_size_shape b v
        | Int b -> my_int_shape b v
        | Flag ->
          if Strutil.trim v = "" then Sh_ok
          else
            Sh_junk
              (Printf.sprintf "'%s' takes no value; '%s' is silently ignored" full v)
        | Bool _ -> (
          match d.value with
          | None -> Sh_ok
          | Some v -> (
            match String.uppercase_ascii v with
            | "ON" | "TRUE" | "1" | "OFF" | "FALSE" | "0" -> Sh_ok
            | other ->
              Sh_bad (Printf.sprintf "invalid boolean value '%s' for %s" other full)))
        | Path_any _ -> (
          match d.value with
          | Some v when v <> "" && v.[0] <> '/' ->
            Sh_bad (Printf.sprintf "%s must be an absolute path, got '%s'" full v)
          | Some _ | None -> Sh_ok)
        | Path_existing _ -> Sh_ok (* MY-DATADIR's business *) )

let my_shape_rule ~id ~severity ~doc pick =
  Rule.make ~id ~severity ~doc
    (Rule.Check_set
       (fun set ->
         List.concat_map
           (fun (path, (d : Node.t)) ->
             match my_shape_of d with
             | Some (full, shape) -> (
               match pick full shape with
               | Some m -> [ raw ~file:my_file ~path m ]
               | None -> [])
             | None -> [])
           (my_section_directives set "mysqld")))

let my_orphan =
  Rule.make ~id:"MY-ORPHAN" ~severity:Finding.Error
    ~doc:"options must follow a [group] header (agreement)"
    (Rule.Check_set
       (fun set ->
         match Config_set.find set my_file with
         | None -> [ raw ~file:my_file ~path:[] "my.cnf not found" ]
         | Some root ->
           ini_sections root
           |> List.filter (fun (_, (s : Node.t)) -> s.name = "")
           |> List.concat_map ini_directives
           |> List.map (fun (path, (d : Node.t)) ->
                  raw ~file:my_file ~path
                    (Printf.sprintf
                       "Found option without preceding group in config file: %s"
                       d.name))))

let my_section =
  Rule.make ~id:"MY-SECTION" ~severity:Finding.Error
    ~doc:
      "an unrecognized [group] is never parsed by any tool; its options are \
       silently dead (gap)"
    (Rule.Unknown
       {
         target = Rule.in_file my_file;
         kind = Node.kind_section;
         known = (fun n -> n = "" || List.mem n my_sections);
         vocabulary = my_sections;
         what = "section";
       })

let my_unknown =
  Rule.make ~id:"MY-UNKNOWN" ~severity:Finding.Error
    ~doc:"unknown [mysqld] variables abort startup (agreement)"
    (Rule.Unknown
       {
         target = Rule.in_section ~file:my_file "mysqld";
         kind = Node.kind_directive;
         known =
           (fun n ->
             match Mini_mysql.resolve_name n with `Known _ -> true | _ -> false);
         vocabulary = Vocabulary.mysql;
         what = "variable";
       })

let my_prefix =
  Rule.make ~id:"MY-PREFIX" ~severity:Finding.Warning
    ~doc:
      "an unambiguous name prefix is accepted silently; it breaks when a new \
       variable makes it ambiguous (gap)"
    (Rule.Check_set
       (fun set ->
         List.concat_map
           (fun (path, (d : Node.t)) ->
             match Mini_mysql.resolve_name d.name with
             | `Known full when Mini_mysql.fold_dashes d.name <> full ->
               [
                 raw ~suggestion:full ~file:my_file ~path
                   (Printf.sprintf "abbreviated variable name '%s' resolves to '%s'"
                      d.name full);
               ]
             | _ -> [])
           (my_section_directives set "mysqld")))

let my_silent =
  my_shape_rule ~id:"MY-SILENT-DEFAULT" ~severity:Finding.Error
    ~doc:"an unusable numeric value is silently replaced by the default (gap)"
    (fun full shape ->
      match shape with
      | Sh_silent m -> Some (Printf.sprintf "%s: %s" full m)
      | _ -> None)

let my_junk =
  my_shape_rule ~id:"MY-VALUE-JUNK" ~severity:Finding.Warning
    ~doc:"trailing junk after a multiplier (or after a flag) is silently dropped (gap)"
    (fun full shape ->
      match shape with
      | Sh_junk m -> Some (Printf.sprintf "%s: %s" full m)
      | _ -> None)

let my_missing =
  my_shape_rule ~id:"MY-MISSING-VALUE" ~severity:Finding.Warning
    ~doc:"a numeric variable without a value is silently defaulted (gap)"
    (fun full shape ->
      match shape with
      | Sh_missing ->
        Some
          (Printf.sprintf "variable '%s' has no value; the built-in default is \
                           silently used" full)
      | _ -> None)

let my_bad =
  my_shape_rule ~id:"MY-BAD-VALUE" ~severity:Finding.Error
    ~doc:"a malformed value aborts startup (agreement)"
    (fun _full shape -> match shape with Sh_bad m -> Some m | _ -> None)

let my_datadir =
  Rule.make ~id:"MY-DATADIR" ~severity:Finding.Error
    ~doc:"datadir must name an existing directory (agreement)"
    (Rule.Reference
       {
         target = Rule.in_section ~file:my_file "mysqld";
         name = "datadir";
         canon = Mini_mysql.fold_dashes;
         what = "directory";
         exists = (fun v -> List.mem v Mini_mysql.existing_paths);
       })

let my_latent =
  Rule.make ~id:"MY-LATENT" ~severity:Finding.Error
    ~doc:
      "tool sections are parsed only when the tool runs, often from cron — \
       errors there are latent (gap)"
    (Rule.Check_set
       (fun set ->
         let dump =
           List.concat_map
             (fun (path, (d : Node.t)) ->
               let folded = Mini_mysql.fold_dashes d.name in
               if not (List.mem folded Mini_mysql.mysqldump_options) then
                 [
                   raw ~file:my_file ~path
                     (Printf.sprintf
                        "mysqldump: unknown option '--%s'; the tool will fail when \
                         it next runs"
                        d.name);
                 ]
               else if folded = "max_allowed_packet" then begin
                 let b =
                   { Mini_mysql.min = 1024L; max = 1073741824L; default = 16777216L }
                 in
                 match my_size_shape b (Option.value ~default:"" d.value) with
                 | Sh_bad m ->
                   [ raw ~file:my_file ~path (Printf.sprintf "mysqldump: %s" m) ]
                 | _ -> []
               end
               else [])
             (my_section_directives set "mysqldump")
         in
         let safe =
           List.concat_map
             (fun (path, (d : Node.t)) ->
               if not (List.mem (Mini_mysql.fold_dashes d.name) my_safe_options) then
                 [
                   raw ~file:my_file ~path
                     (Printf.sprintf
                        "mysqld_safe: unknown option '--%s'; the wrapper will fail \
                         when it next runs"
                        d.name);
                 ]
               else [])
             (my_section_directives set "mysqld_safe")
         in
         dump @ safe))

let my_dup =
  Rule.make ~id:"MY-DUP" ~severity:Finding.Warning
    ~doc:"a repeated variable is silently last-one-wins (gap)"
    (Rule.No_duplicates
       {
         target = Rule.in_section ~file:my_file "mysqld";
         names = None;
         canon = Mini_mysql.fold_dashes;
       })

let my_functional =
  Rule.make ~id:"MY-FUNCTIONAL" ~severity:Finding.Warning
    ~doc:"the diagnosis probe connects to port 3306; another port fails it (gap)"
    (Rule.Check_set
       (fun set ->
         List.concat_map
           (fun (path, (d : Node.t)) ->
             match my_shape_of d with
             | Some ("port", Sh_ok) -> (
               match Int64.of_string_opt (Strutil.trim (Option.value ~default:"" d.value)) with
               | Some p when p <> 3306L ->
                 [
                   raw ~file:my_file ~path
                     (Printf.sprintf
                        "the diagnosis probe connects to port 3306; port %Ld will \
                         fail it"
                        p);
                 ]
               | _ -> [])
             | _ -> [])
           (my_section_directives set "mysqld")))

let mysql =
  [
    my_orphan;
    my_section;
    my_unknown;
    my_prefix;
    my_silent;
    my_junk;
    my_missing;
    my_bad;
    my_datadir;
    my_latent;
    my_dup;
    my_functional;
  ]

(* ------------------------------------------------------------------ *)
(* Apache                                                               *)
(* ------------------------------------------------------------------ *)

(* httpd.conf first: boot concatenates httpd.conf then ssl.conf. *)
let ap_files set =
  List.filter (fun f -> List.mem f (Config_set.names set)) [ "httpd.conf"; "ssl.conf" ]

let ap_strip_quotes s =
  if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"' then
    String.sub s 1 (String.length s - 2)
  else s

let ap_port_of s =
  let port_text =
    match String.rindex_opt s ':' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  if port_text <> "" && String.for_all (fun c -> c >= '0' && c <= '9') port_text then begin
    let p = int_of_string port_text in
    if p >= 1 && p <= 65535 then Some p else None
  end
  else None

(* Everything one mirror pass over the configuration learns; the rules
   below each pick their slice. *)
type ap_scan = {
  mutable ap_loaded : string list;
  mutable ap_load_errors : Rule.raw list;  (* reversed *)
  mutable ap_errors : Rule.raw list;  (* reversed; startup-fatal *)
  mutable ap_skipped : Rule.raw list;  (* reversed; <IfModule> gaps *)
  mutable ap_listeners : int list;
  mutable ap_first_listen : (string * Conftree.Path.t) option;
  mutable ap_docroot : string;
  mutable ap_docroot_at : (string * Conftree.Path.t) option;
  mutable ap_vhost_roots : (int * string) list;
  mutable ap_dirindex : string list;
  mutable ap_dirindex_at : (string * Conftree.Path.t) option;
  mutable ap_have_httpd_conf : bool;
}

let ap_scan set =
  let sc =
    {
      ap_loaded = [];
      ap_load_errors = [];
      ap_errors = [];
      ap_skipped = [];
      ap_listeners = [];
      ap_first_listen = None;
      ap_docroot = "";
      ap_docroot_at = None;
      ap_vhost_roots = [];
      ap_dirindex = [];
      ap_dirindex_at = None;
      ap_have_httpd_conf = List.mem "httpd.conf" (Config_set.names set);
    }
  in
  if not sc.ap_have_httpd_conf then begin
    sc.ap_errors <- [ raw ~file:"httpd.conf" ~path:[] "httpd.conf not found" ];
    sc
  end
  else begin
    (* First pass, every file and every section (the server resolves
       LoadModule before interpreting the rest): collect loaded modules
       and bad LoadModule lines. *)
    List.iter
      (fun file ->
        match Config_set.find set file with
        | None -> ()
        | Some root ->
          let rec go base (children : Node.t list) =
            List.iteri
              (fun i (n : Node.t) ->
                let path = base @ [ i ] in
                if
                  n.kind = Node.kind_directive
                  && String.lowercase_ascii n.name = "loadmodule"
                then begin
                  let args = Node.value_or ~default:"" n in
                  match
                    Mini_apache.validate_directive ~loaded:[] "loadmodule" args
                  with
                  | Ok () -> (
                    match Strutil.fields args with
                    | [ name; _ ] -> sc.ap_loaded <- sc.ap_loaded @ [ name ]
                    | _ -> ())
                  | Error m -> sc.ap_load_errors <- raw ~file ~path m :: sc.ap_load_errors
                end
                else if n.kind = Node.kind_section then go path n.children)
              children
          in
          go [] root.children)
      (ap_files set);
    let loaded = sc.ap_loaded in
    let directive file path (n : Node.t) ~vhost_port =
      let lname = String.lowercase_ascii n.name in
      if lname = "loadmodule" then () (* first pass handled it *)
      else begin
        let args = Node.value_or ~default:"" n in
        match Mini_apache.validate_directive ~loaded n.name args with
        | Error m -> sc.ap_errors <- raw ~file ~path m :: sc.ap_errors
        | Ok () ->
          if lname = "listen" then begin
            (match Strutil.fields args with
            | [ spec ] -> (
              match ap_port_of spec with
              | Some p -> sc.ap_listeners <- sc.ap_listeners @ [ p ]
              | None -> ())
            | _ -> ());
            if sc.ap_first_listen = None then sc.ap_first_listen <- Some (file, path)
          end
          else if lname = "documentroot" then begin
            let root =
              ap_strip_quotes
                (Option.value ~default:"" (List.nth_opt (Strutil.fields args) 0))
            in
            match vhost_port with
            | None ->
              sc.ap_docroot <- root;
              sc.ap_docroot_at <- Some (file, path)
            | Some p -> sc.ap_vhost_roots <- (p, root) :: sc.ap_vhost_roots
          end
          else if lname = "directoryindex" then begin
            sc.ap_dirindex <- Strutil.fields args;
            sc.ap_dirindex_at <- Some (file, path)
          end
      end
    in
    let rec walk file base (children : Node.t list) ~vhost_port =
      List.iteri
        (fun i (n : Node.t) ->
          let path = base @ [ i ] in
          if n.kind = Node.kind_directive then directive file path n ~vhost_port
          else if n.kind = Node.kind_section then begin
            let lname = String.lowercase_ascii n.name in
            let arg = Option.value ~default:"" (Node.attr n "arg") in
            if not (List.mem lname Mini_apache.known_sections) then
              sc.ap_errors <-
                raw ~file ~path
                  (Printf.sprintf
                     "Invalid command '<%s', perhaps misspelled or defined by a \
                      module not included in the server configuration"
                     lname)
                :: sc.ap_errors
            else if lname = "ifmodule" then begin
              let mod_name, negated = Mini_apache.ifmodule_ref arg in
              if not (List.mem_assoc mod_name Mini_apache.modules) then
                sc.ap_skipped <-
                  raw ~file ~path
                    (Printf.sprintf
                       "<IfModule %s> tests an unknown module; its whole body is \
                        silently skipped"
                       (Strutil.trim arg))
                  :: sc.ap_skipped;
              let present = List.mem mod_name loaded in
              if (present && not negated) || ((not present) && negated) then
                walk file path n.children ~vhost_port
              (* else: body skipped entirely, exactly like the server *)
            end
            else if lname = "virtualhost" then begin
              match ap_port_of (Strutil.trim arg) with
              | Some p -> walk file path n.children ~vhost_port:(Some p)
              | None ->
                if Strutil.trim arg = "*" then
                  walk file path n.children ~vhost_port:(Some 80)
                else
                  sc.ap_errors <-
                    raw ~file ~path
                      (Printf.sprintf "VirtualHost: Invalid port in %S"
                         (Strutil.trim arg))
                    :: sc.ap_errors
            end
            else walk file path n.children ~vhost_port
          end)
        children
    in
    List.iter
      (fun file ->
        match Config_set.find set file with
        | None -> ()
        | Some root -> walk file [] root.children ~vhost_port:None)
      (ap_files set);
    sc
  end

let ap_conf =
  Rule.make ~id:"AP-CONF" ~severity:Finding.Error
    ~doc:
      "directives must be known, provided by a loaded module, and carry valid \
       values (agreement)"
    (Rule.Check_set
       (fun set ->
         let sc = ap_scan set in
         List.rev sc.ap_load_errors @ List.rev sc.ap_errors))

let ap_ifmodule =
  Rule.make ~id:"AP-IFMODULE" ~severity:Finding.Warning
    ~doc:
      "an <IfModule> naming an unknown module silently hides its whole body (gap)"
    (Rule.Check_set (fun set -> List.rev (ap_scan set).ap_skipped))

let ap_nolisten =
  Rule.make ~id:"AP-NOLISTEN" ~severity:Finding.Error
    ~doc:"without a valid Listen there are no listening sockets (agreement)"
    (Rule.Check_set
       (fun set ->
         let sc = ap_scan set in
         if sc.ap_have_httpd_conf && sc.ap_listeners = [] then
           [
             raw ~file:"httpd.conf" ~path:[]
               "no listening sockets available, shutting down";
           ]
         else []))

let ap_functional =
  Rule.make ~id:"AP-FUNCTIONAL" ~severity:Finding.Warning
    ~doc:
      "the HTTP probe GETs port 80 and expects /var/www/html with index.html \
       (gap: survives startup)"
    (Rule.Check_set
       (fun set ->
         let sc = ap_scan set in
         if not sc.ap_have_httpd_conf then []
         else begin
           let out = ref [] in
           let anchor fallback = Option.value ~default:("httpd.conf", []) fallback in
           if sc.ap_listeners <> [] && not (List.mem 80 sc.ap_listeners) then begin
             let file, path = anchor sc.ap_first_listen in
             out :=
               raw ~file ~path
                 (Printf.sprintf
                    "the HTTP probe connects to port 80; listening only on: %s"
                    (String.concat "," (List.map string_of_int sc.ap_listeners)))
               :: !out
           end;
           let root =
             match List.assoc_opt 80 sc.ap_vhost_roots with
             | Some r -> r
             | None -> sc.ap_docroot
           in
           if root <> "/var/www/html" then begin
             let file, path = anchor sc.ap_docroot_at in
             out :=
               raw ~file ~path
                 (Printf.sprintf
                    "404 predicted: DocumentRoot %S has no site content (the probe \
                     expects /var/www/html)"
                    root)
               :: !out
           end;
           if not (List.mem "index.html" sc.ap_dirindex) then begin
             let file, path = anchor sc.ap_dirindex_at in
             out :=
               raw ~file ~path
                 "403 predicted: DirectoryIndex does not map / to index.html"
               :: !out
           end;
           List.rev !out
         end))

let ap_hostname_ok h =
  let h = match String.index_opt h ':' with Some i -> String.sub h 0 i | None -> h in
  let label_ok l =
    l <> ""
    && l.[0] <> '-'
    && l.[String.length l - 1] <> '-'
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
           || c = '-')
         l
  in
  h <> "" && List.for_all label_ok (String.split_on_char '.' h)

let ap_mime_ok t =
  match String.index_opt t '/' with
  | Some i ->
    i > 0
    && i < String.length t - 1
    && not (String.contains_from t (i + 1) '/')
  | None -> false

let ap_value_rule ~id ~doc ~name check =
  Rule.make ~id ~severity:Finding.Warning ~doc
    (Rule.Value
       {
         target = Rule.anywhere;
         name;
         canon = Rule.lower;
         vtype = Rule.Custom { expect = doc; check };
         missing = None;
       })

let ap_servername =
  ap_value_rule ~id:"AP-SERVERNAME" ~name:"servername"
    ~doc:"ServerName should be a DNS host name; httpd accepts anything (gap)"
    (fun v ->
      match Strutil.fields v with
      | [ h ] when ap_hostname_ok h -> None
      | _ ->
        Some
          (Printf.sprintf
             "ServerName '%s' does not look like a DNS host name; httpd accepts it \
              unchecked"
             v))

let ap_serveradmin =
  ap_value_rule ~id:"AP-SERVERADMIN" ~name:"serveradmin"
    ~doc:"ServerAdmin should be an email address; httpd accepts anything (gap)"
    (fun v ->
      let ok =
        match String.index_opt v '@' with
        | Some i -> i > 0 && i < String.length v - 1 && not (String.contains v ' ')
        | None -> false
      in
      if ok then None
      else
        Some
          (Printf.sprintf
             "ServerAdmin '%s' is not an email address; httpd accepts it unchecked" v))

let ap_defaulttype =
  ap_value_rule ~id:"AP-MIME" ~name:"defaulttype"
    ~doc:"DefaultType should be an RFC 2045 type/subtype; httpd accepts anything (gap)"
    (fun v ->
      match Strutil.fields v with
      | [ t ] when ap_mime_ok t -> None
      | _ ->
        Some
          (Printf.sprintf
             "DefaultType '%s' is not a type/subtype MIME type; httpd accepts it \
              unchecked"
             v))

let ap_addtype =
  ap_value_rule ~id:"AP-MIME" ~name:"addtype"
    ~doc:
      "AddType's first argument should be an RFC 2045 type/subtype; httpd accepts \
       anything (gap)"
    (fun v ->
      match Strutil.fields v with
      | t :: _ :: _ when ap_mime_ok t -> None
      | t :: _ :: _ ->
        Some
          (Printf.sprintf
             "AddType '%s' is not a type/subtype MIME type; httpd accepts it \
              unchecked"
             t)
      | _ -> None (* argument count is AP-CONF's (Min_args) business *))

let ap_dup =
  Rule.make ~id:"AP-DUP" ~severity:Finding.Warning
    ~doc:"repeating a single-valued directive is silently last-one-wins (gap)"
    (Rule.No_duplicates
       {
         target = Rule.anywhere;
         names =
           Some
             [
               "servername";
               "serveradmin";
               "documentroot";
               "errorlog";
               "loglevel";
               "pidfile";
               "timeout";
               "keepalive";
               "keepalivetimeout";
               "maxclients";
               "user";
               "group";
               "defaulttype";
             ];
         canon = Rule.lower;
       })

let apache =
  [
    ap_conf;
    ap_nolisten;
    ap_ifmodule;
    ap_functional;
    ap_servername;
    ap_serveradmin;
    ap_defaulttype;
    ap_addtype;
    ap_dup;
  ]

(* ------------------------------------------------------------------ *)
(* BIND                                                                 *)
(* ------------------------------------------------------------------ *)

let bd_conf_file = "named.conf"

let bd_unquote v =
  let v = Strutil.trim v in
  if String.length v >= 2 && v.[0] = '"' && v.[String.length v - 1] = '"' then
    String.sub v 1 (String.length v - 2)
  else v

let bd_options_vocab =
  [ "directory"; "recursion"; "listen-on"; "allow-query"; "forwarders"; "version" ]

(* One walk over named.conf: configuration raws plus the declared zones
   with their anchors. *)
type bd_decl = {
  bd_file : string;
  bd_origin : string;
  bd_file_path : Conftree.Path.t;  (* the file directive, for anchoring *)
}

let bd_read set =
  match Config_set.find set bd_conf_file with
  | None -> ([ raw ~file:bd_conf_file ~path:[] "named.conf not found" ], [])
  | Some root ->
    let raws = ref [] in
    let decls = ref [] in
    let emit path m ?suggestion () =
      raws := raw ?suggestion ~file:bd_conf_file ~path m :: !raws
    in
    List.iteri
      (fun i (n : Node.t) ->
        if n.kind = Node.kind_section then
          match String.lowercase_ascii n.name with
          | "options" ->
            List.iteri
              (fun j (d : Node.t) ->
                if d.kind = Node.kind_directive then
                  match (String.lowercase_ascii d.name, d.value) with
                  | "directory", Some dir
                    when List.mem (bd_unquote dir) Mini_bind.existing_directories ->
                    ()
                  | "directory", Some dir ->
                    emit [ i; j ]
                      (Printf.sprintf "named.conf: directory %s not found" dir)
                      ()
                  | "recursion", Some ("yes" | "no") -> ()
                  | "recursion", Some other ->
                    emit [ i; j ]
                      (Printf.sprintf
                         "named.conf: recursion must be yes or no, got %s" other)
                      ()
                  | ("listen-on" | "allow-query" | "forwarders" | "version"), _ -> ()
                  | other, _ ->
                    emit [ i; j ]
                      (Printf.sprintf "named.conf: unknown option '%s'" other)
                      ())
              n.children
          | "zone" ->
            let origin =
              Dnsmodel.Name.normalize
                (Option.value ~default:"" (Node.attr n "arg"))
            in
            let find name =
              let rec go j = function
                | [] -> None
                | (d : Node.t) :: rest ->
                  if
                    d.kind = Node.kind_directive
                    && String.lowercase_ascii d.name = name
                  then Some (j, d)
                  else go (j + 1) rest
              in
              go 0 n.children
            in
            (match find "type" with
            | Some (_, d)
              when List.mem (Node.value_or ~default:"" d) Mini_bind.known_zone_types
              ->
              ()
            | Some (j, d) ->
              emit [ i; j ]
                (Printf.sprintf "zone %s: unknown type '%s'" origin
                   (Node.value_or ~default:"" d))
                ()
            | None ->
              emit [ i ] (Printf.sprintf "zone %s: missing 'type'" origin) ());
            (match find "file" with
            | Some (j, d) ->
              decls :=
                {
                  bd_file = bd_unquote (Node.value_or ~default:"" d);
                  bd_origin = origin;
                  bd_file_path = [ i; j ];
                }
                :: !decls
            | None ->
              emit [ i ] (Printf.sprintf "zone %s: missing 'file'" origin) ())
          | other ->
            emit [ i ]
              (Printf.sprintf "named.conf: unknown block '%s'" other)
              ?suggestion:
                (if List.mem other [ "option"; "zones"; "optons" ] then Some "options"
                 else None)
              ())
      root.children;
    (List.rev !raws, List.rev !decls)

let bd_conf =
  Rule.make ~id:"BD-CONF" ~severity:Finding.Error
    ~doc:"named.conf blocks, options and zone declarations are checked (agreement)"
    (Rule.Check_set (fun set -> fst (bd_read set)))

let bd_dangling =
  Rule.make ~id:"BD-FILE" ~severity:Finding.Error
    ~doc:"a declared zone file must exist (agreement)"
    (Rule.Check_set
       (fun set ->
         let _, decls = bd_read set in
         List.concat_map
           (fun d ->
             if not (List.mem d.bd_file (Config_set.names set)) then
               [
                 raw ~file:bd_conf_file ~path:d.bd_file_path
                   (Printf.sprintf
                      "zone %s: loading from master file %s failed: file not found"
                      d.bd_origin d.bd_file);
               ]
             else [])
           decls))

let bd_unused =
  Rule.make ~id:"BD-UNUSED" ~severity:Finding.Warning
    ~doc:"a zone file not declared in named.conf is never served (gap)"
    (Rule.Check_set
       (fun set ->
         let _, decls = bd_read set in
         let declared = List.map (fun d -> d.bd_file) decls in
         List.concat_map
           (fun f ->
             if f <> bd_conf_file && not (List.mem f declared) then
               [
                 raw ~file:f ~path:[]
                   (Printf.sprintf
                      "zone file '%s' is not declared in named.conf; its zone is \
                       not served"
                      f);
               ]
             else [])
           (Config_set.names set)))

(* Decode the declared-and-present zones into the abstract record model;
   [None] when nothing can be decoded or decoding fails (the failure
   itself is a BD-LOAD raw). *)
let bd_decode set =
  let _, decls = bd_read set in
  let present =
    List.filter (fun d -> List.mem d.bd_file (Config_set.names set)) decls
  in
  let zones = List.map (fun d -> (d.bd_file, d.bd_origin)) present in
  if zones = [] then (present, Error [])
  else begin
    let subset =
      Config_set.of_list
        (List.filter_map
           (fun (f, _) ->
             Option.map (fun t -> (f, t)) (Config_set.find set f))
           zones)
    in
    match (Dnsmodel.Codec.bind ~zones).Dnsmodel.Codec.decode subset with
    | Error msg ->
      ( present,
        Error
          [
            raw ~file:(List.hd (List.map fst zones)) ~path:[]
              (Printf.sprintf "dns_master_load: %s" msg);
          ] )
    | Ok records -> (present, Ok records)
  end

let bd_load =
  Rule.make ~id:"BD-LOAD" ~severity:Finding.Error
    ~doc:"zone files must decode into DNS records (agreement)"
    (Rule.Check_set
       (fun set ->
         match bd_decode set with _, Error raws -> raws | _, Ok _ -> []))

(* Anchor a finding on the record node for (owner, rtype) in the zone
   file where the record came from. *)
let bd_record_path set ~file ~origin ~owner ~rtype =
  match Config_set.find set file with
  | None -> (bd_conf_file, [])
  | Some tree ->
    let want = Dnsmodel.Name.normalize ~origin owner in
    let found = ref None in
    List.iteri
      (fun i (n : Node.t) ->
        if !found = None && n.kind = Node.kind_record then begin
          let n_owner =
            Dnsmodel.Name.normalize ~origin
              (Option.value ~default:n.name (Node.attr n "owner"))
          in
          let n_type =
            String.uppercase_ascii (Option.value ~default:"" (Node.attr n "type"))
          in
          if n_owner = want && n_type = rtype then found := Some [ i ]
        end)
      tree.children;
    (file, Option.value ~default:[] !found)

let bd_with_records f =
  Rule.Check_set
    (fun set ->
      match bd_decode set with
      | _, Error _ -> []
      | decls, Ok records -> f set decls records)

let bd_file_of (r : Dnsmodel.Record.t) decls =
  match Dnsmodel.Record.tag r Dnsmodel.Codec.tag_file with
  | Some f -> f
  | None -> ( match decls with d :: _ -> d.bd_file | [] -> bd_conf_file)

let bd_origin_of (r : Dnsmodel.Record.t) decls =
  match
    List.find_opt
      (fun d -> Dnsmodel.Name.in_domain ~domain:d.bd_origin r.owner)
      decls
  with
  | Some d -> d.bd_origin
  | None -> "."

let bd_anchor set decls (r : Dnsmodel.Record.t) =
  bd_record_path set ~file:(bd_file_of r decls) ~origin:(bd_origin_of r decls)
    ~owner:r.owner ~rtype:(Dnsmodel.Record.rtype r)

let bd_zone_checks =
  Rule.make ~id:"BD-ZONE" ~severity:Finding.Error
    ~doc:"the consistency checks BIND runs at zone load (agreement)"
    (bd_with_records
       (fun set decls records ->
         List.concat_map
           (fun d ->
             let zone =
               Dnsmodel.Zone.make ~origin:d.bd_origin
                 (List.filter
                    (fun r ->
                      Dnsmodel.Record.tag r Dnsmodel.Codec.tag_file
                      = Some d.bd_file)
                    records)
             in
             List.map
               (fun problem ->
                 let message =
                   Format.asprintf "zone %s: %a: not loaded due to errors"
                     d.bd_origin Dnsmodel.Zone.pp_problem problem
                 in
                 let file, path =
                   match problem with
                   | Dnsmodel.Zone.Cname_and_other_data name ->
                     bd_record_path set ~file:d.bd_file ~origin:d.bd_origin
                       ~owner:name ~rtype:"CNAME"
                   | Dnsmodel.Zone.Mx_target_is_alias (owner, _) ->
                     bd_record_path set ~file:d.bd_file ~origin:d.bd_origin
                       ~owner ~rtype:"MX"
                   | Dnsmodel.Zone.Ns_target_is_alias (owner, _) ->
                     bd_record_path set ~file:d.bd_file ~origin:d.bd_origin
                       ~owner ~rtype:"NS"
                   | Dnsmodel.Zone.Missing_soa -> (d.bd_file, [])
                 in
                 raw ~file ~path message)
               (Dnsmodel.Zone.validate zone))
           decls))

let bd_soa_at_apex =
  Rule.make ~id:"BD-SOA" ~severity:Finding.Warning
    ~doc:
      "the SOA must sit at the zone apex; BIND only checks that one exists \
       somewhere (gap)"
    (bd_with_records
       (fun set decls records ->
         List.concat_map
           (fun d ->
             let in_zone =
               List.filter
                 (fun (r : Dnsmodel.Record.t) ->
                   Dnsmodel.Record.tag r Dnsmodel.Codec.tag_file = Some d.bd_file)
                 records
             in
             let soas =
               List.filter
                 (fun r -> Dnsmodel.Record.rtype r = "SOA")
                 in_zone
             in
             (* no SOA at all is BD-ZONE's Missing_soa *)
             if
               soas <> []
               && not
                    (List.exists
                       (fun (r : Dnsmodel.Record.t) -> r.owner = d.bd_origin)
                       soas)
             then
               List.map
                 (fun (r : Dnsmodel.Record.t) ->
                   let file, path =
                     bd_record_path set ~file:d.bd_file ~origin:d.bd_origin
                       ~owner:r.owner ~rtype:"SOA"
                   in
                   raw ~file ~path
                     (Printf.sprintf
                        "zone %s: SOA is at %s, not at the apex; queries for the \
                         zone apex will fail"
                        d.bd_origin r.owner))
                 soas
             else [])
           decls))

let bd_is_reverse origin = Dnsmodel.Name.in_domain ~domain:"in-addr.arpa." origin

let bd_ptr_missing =
  Rule.make ~id:"BD-PTR-MISSING" ~severity:Finding.Error
    ~doc:
      "every address should have a PTR in the declared reverse zone; BIND never \
       cross-checks (gap)"
    (bd_with_records
       (fun set decls records ->
         let reverse_declared = List.exists (fun d -> bd_is_reverse d.bd_origin) decls in
         if not reverse_declared then []
         else
           List.concat_map
             (fun (r : Dnsmodel.Record.t) ->
               match r.rdata with
               | Dnsmodel.Record.A ip -> (
                 match Dnsmodel.Name.reverse_of_ipv4 ip with
                 | None -> []
                 | Some rev ->
                   let covered =
                     List.exists
                       (fun d ->
                         bd_is_reverse d.bd_origin
                         && Dnsmodel.Name.in_domain ~domain:d.bd_origin rev)
                       decls
                   in
                   let has_ptr =
                     List.exists
                       (fun (p : Dnsmodel.Record.t) ->
                         p.owner = rev && Dnsmodel.Record.rtype p = "PTR")
                       records
                   in
                   if covered && not has_ptr then begin
                     let file, path = bd_anchor set decls r in
                     [
                       raw ~file ~path
                         (Printf.sprintf
                            "missing PTR: no %s record for %s (%s); reverse lookup \
                             will fail"
                            "PTR" r.owner ip);
                     ]
                   end
                   else [])
               | _ -> [])
             records))

let bd_ptr_alias =
  Rule.make ~id:"BD-PTR-ALIAS" ~severity:Finding.Error
    ~doc:"a PTR should point at a canonical name, not a CNAME; BIND never checks (gap)"
    (bd_with_records
       (fun set decls records ->
         List.concat_map
           (fun (p : Dnsmodel.Record.t) ->
             match p.rdata with
             | Dnsmodel.Record.Ptr target ->
               let target = Dnsmodel.Name.normalize target in
               if
                 List.exists
                   (fun (c : Dnsmodel.Record.t) ->
                     c.owner = target && Dnsmodel.Record.rtype c = "CNAME")
                   records
               then begin
                 let file, path = bd_anchor set decls p in
                 [
                   raw ~file ~path
                     (Printf.sprintf
                        "PTR target %s is an alias (CNAME), not a canonical name"
                        target);
                 ]
               end
               else []
             | _ -> [])
           records))

let bd_ptr_nofwd =
  Rule.make ~id:"BD-PTR-NOFWD" ~severity:Finding.Warning
    ~doc:"a PTR target should own an address record; BIND never checks (gap)"
    (bd_with_records
       (fun set decls records ->
         List.concat_map
           (fun (p : Dnsmodel.Record.t) ->
             match p.rdata with
             | Dnsmodel.Record.Ptr target ->
               let target = Dnsmodel.Name.normalize target in
               let owns rtype =
                 List.exists
                   (fun (r : Dnsmodel.Record.t) ->
                     r.owner = target && Dnsmodel.Record.rtype r = rtype)
                   records
               in
               (* the alias case is BD-PTR-ALIAS's *)
               if owns "A" || owns "CNAME" then []
               else begin
                 let file, path = bd_anchor set decls p in
                 [
                   raw ~file ~path
                     (Printf.sprintf "PTR %s points at %s, which has no address \
                                      record" p.owner target);
                 ]
               end
             | _ -> [])
           records))

let bd_cname_chain =
  Rule.make ~id:"BD-CNAME-CHAIN" ~severity:Finding.Warning
    ~doc:"a CNAME chaining to another CNAME is slow and fragile; BIND loads it (gap)"
    (bd_with_records
       (fun set decls records ->
         List.concat_map
           (fun (c : Dnsmodel.Record.t) ->
             match c.rdata with
             | Dnsmodel.Record.Cname target ->
               let target = Dnsmodel.Name.normalize target in
               if
                 List.exists
                   (fun (r : Dnsmodel.Record.t) ->
                     r.owner = target && Dnsmodel.Record.rtype r = "CNAME")
                   records
               then begin
                 let file, path = bd_anchor set decls c in
                 [
                   raw ~file ~path
                     (Printf.sprintf "CNAME chain: %s points at %s, itself an alias"
                        c.owner target);
                 ]
               end
               else []
             | _ -> [])
           records))

let bind =
  [
    bd_conf;
    bd_dangling;
    bd_unused;
    bd_load;
    bd_zone_checks;
    bd_soa_at_apex;
    bd_ptr_missing;
    bd_ptr_alias;
    bd_ptr_nofwd;
    bd_cname_chain;
  ]

let _ = bd_options_vocab (* documented in doc/lint.md; kept for tooling *)

(* ------------------------------------------------------------------ *)
(* djbdns                                                               *)
(* ------------------------------------------------------------------ *)

let dj_file = Mini_djbdns.data_file

let dj_decode set =
  match Config_set.find set dj_file with
  | None -> Error [ raw ~file:dj_file ~path:[] "data file not found" ]
  | Some tree -> (
    let codec = Dnsmodel.Codec.tinydns ~file:dj_file in
    match codec.Dnsmodel.Codec.decode (Config_set.of_list [ (dj_file, tree) ]) with
    | Error msg ->
      Error [ raw ~file:dj_file ~path:[] (Printf.sprintf "tinydns-data: %s" msg) ]
    | Ok records -> Ok records)

(* Anchor on the data line whose name field resolves to [owner]. *)
let dj_path set ~owner =
  match Config_set.find set dj_file with
  | None -> []
  | Some tree ->
    let found = ref None in
    List.iteri
      (fun i (n : Node.t) ->
        if
          !found = None
          && n.kind = Node.kind_record
          && Dnsmodel.Name.normalize n.name = owner
        then found := Some [ i ])
      tree.children;
    Option.value ~default:[] !found

let dj_with_records f =
  Rule.Check_set
    (fun set -> match dj_decode set with Error _ -> [] | Ok records -> f set records)

let dj_data =
  Rule.make ~id:"DJ-DATA" ~severity:Finding.Error
    ~doc:"tinydns-data compiles the file: operator and field syntax (agreement)"
    (Rule.Check_set
       (fun set -> match dj_decode set with Error raws -> raws | Ok _ -> []))

let dj_owns records owner rtype =
  List.exists
    (fun (r : Dnsmodel.Record.t) -> r.owner = owner && Dnsmodel.Record.rtype r = rtype)
    records

let dj_collision =
  Rule.make ~id:"DJ-COLLISION" ~severity:Finding.Error
    ~doc:
      "a name owning a CNAME and other data violates RFC 1034; tinydns publishes \
       it without a word (gap)"
    (dj_with_records
       (fun set records ->
         let seen = ref [] in
         List.concat_map
           (fun (c : Dnsmodel.Record.t) ->
             match c.rdata with
             | Dnsmodel.Record.Cname _ ->
               if List.mem c.owner !seen then []
               else begin
                 seen := c.owner :: !seen;
                 let other =
                   List.exists
                     (fun (r : Dnsmodel.Record.t) ->
                       r.owner = c.owner && Dnsmodel.Record.rtype r <> "CNAME")
                     records
                 in
                 if other then
                   [
                     raw ~file:dj_file ~path:(dj_path set ~owner:c.owner)
                       (Printf.sprintf
                          "%s owns a CNAME and other data (RFC 1034 §3.6.2); \
                           tinydns publishes both"
                          c.owner);
                   ]
                 else []
               end
             | _ -> [])
           records))

let dj_alias_target ~what records set (r : Dnsmodel.Record.t) target =
  let target = Dnsmodel.Name.normalize target in
  if dj_owns records target "CNAME" then
    [
      raw ~file:dj_file ~path:(dj_path set ~owner:r.owner)
        (Printf.sprintf "%s target %s of %s is an alias (CNAME); tinydns never \
                         checks" what target r.owner);
    ]
  else []

let dj_alias =
  Rule.make ~id:"DJ-ALIAS" ~severity:Finding.Error
    ~doc:"NS and MX targets must be canonical names; tinydns never checks (gap)"
    (dj_with_records
       (fun set records ->
         List.concat_map
           (fun (r : Dnsmodel.Record.t) ->
             match r.rdata with
             | Dnsmodel.Record.Ns t -> dj_alias_target ~what:"NS" records set r t
             | Dnsmodel.Record.Mx (_, t) -> dj_alias_target ~what:"MX" records set r t
             | _ -> [])
           records))

let dj_chain =
  Rule.make ~id:"DJ-CHAIN" ~severity:Finding.Warning
    ~doc:"CNAME chains resolve slowly or not at all; tinydns never checks (gap)"
    (dj_with_records
       (fun set records ->
         List.concat_map
           (fun (c : Dnsmodel.Record.t) ->
             match c.rdata with
             | Dnsmodel.Record.Cname t ->
               let t = Dnsmodel.Name.normalize t in
               if dj_owns records t "CNAME" then
                 [
                   raw ~file:dj_file ~path:(dj_path set ~owner:c.owner)
                     (Printf.sprintf "CNAME chain: %s points at %s, itself an alias"
                        c.owner t);
                 ]
               else []
             | _ -> [])
           records))

let dj_nosoa =
  Rule.make ~id:"DJ-NOSOA" ~severity:Finding.Warning
    ~doc:
      "a record under no SOA apex is served non-authoritatively; tinydns-data \
       compiles it without a word (gap)"
    (dj_with_records
       (fun set records ->
         let apexes =
           List.filter_map
             (fun (r : Dnsmodel.Record.t) ->
               if Dnsmodel.Record.rtype r = "SOA" then Some r.owner else None)
             records
         in
         let seen = ref [] in
         List.concat_map
           (fun (r : Dnsmodel.Record.t) ->
             let covered =
               List.exists
                 (fun apex -> Dnsmodel.Name.in_domain ~domain:apex r.owner)
                 apexes
             in
             if covered || List.mem r.owner !seen then []
             else begin
               seen := r.owner :: !seen;
               [
                 raw ~file:dj_file ~path:(dj_path set ~owner:r.owner)
                   (Printf.sprintf
                      "%s is under no SOA apex; tinydns serves it \
                       non-authoritatively"
                      r.owner);
               ]
             end)
           records))

let djbdns = [ dj_data; dj_collision; dj_alias; dj_chain; dj_nosoa ]

(* ------------------------------------------------------------------ *)
(* Application server                                                   *)
(* ------------------------------------------------------------------ *)

let as_file = "server.xml"

let as_element =
  Rule.make ~id:"AS-ELEMENT" ~severity:Finding.Error
    ~doc:
      "an element the server does not know is silently skipped, subtree and all \
       (gap)"
    (Rule.Unknown
       {
         target = Rule.in_file as_file;
         kind = Node.kind_element;
         known = (fun n -> List.mem (String.lowercase_ascii n) Mini_appserver.known_elements);
         vocabulary = Mini_appserver.known_elements;
         what = "element";
       })

let as_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

type as_scan = {
  mutable as_attr_errors : Rule.raw list;  (* reversed *)
  mutable as_ports : int list;
  mutable as_first_connector : Conftree.Path.t option;
  mutable as_app_base : string;
  mutable as_default_app : string;
  mutable as_host_at : Conftree.Path.t option;
  mutable as_have_file : bool;
}

let as_run set =
  let sc =
    {
      as_attr_errors = [];
      as_ports = [];
      as_first_connector = None;
      as_app_base = "";
      as_default_app = "";
      as_host_at = None;
      as_have_file = true;
    }
  in
  (match Config_set.find set as_file with
  | None ->
    sc.as_have_file <- false;
    sc.as_attr_errors <- [ raw ~file:as_file ~path:[] "server.xml not found" ]
  | Some root ->
    let err path fmt = Printf.ksprintf (fun m -> sc.as_attr_errors <- raw ~file:as_file ~path m :: sc.as_attr_errors) fmt in
    let check_attrs ~element ~allowed path (n : Node.t) =
      List.iter
        (fun (key, _) ->
          if not (List.mem key allowed) then
            err path "element <%s> has no attribute %S" element key)
        n.attrs
    in
    let port_of path (n : Node.t) =
      match Node.attr n "port" with
      | None -> None
      | Some p when as_digits p ->
        let port = int_of_string p in
        if port >= 1 && port <= 65535 then Some port
        else begin
          err path "port %d out of range" port;
          None
        end
      | Some p ->
        err path "invalid port %S" p;
        None
    in
    let rec go base (children : Node.t list) =
      List.iteri
        (fun i (n : Node.t) ->
          let path = base @ [ i ] in
          if n.kind = Node.kind_element then
            match String.lowercase_ascii n.name with
            | "server" ->
              check_attrs ~element:"server" ~allowed:[ "shutdownPort"; "name" ] path n;
              go path n.children
            | "connector" ->
              check_attrs ~element:"connector"
                ~allowed:[ "protocol"; "port"; "timeout" ] path n;
              (match Node.attr n "protocol" with
              | None | Some "http" | Some "https" | Some "ajp" -> ()
              | Some other -> err path "unknown connector protocol %S" other);
              (match Node.attr n "timeout" with
              | None -> ()
              | Some t when as_digits t -> ()
              | Some t -> err path "invalid connector timeout %S" t);
              if sc.as_first_connector = None then sc.as_first_connector <- Some path;
              (match port_of path n with
              | Some p -> sc.as_ports <- sc.as_ports @ [ p ]
              | None -> ())
            | "logger" ->
              check_attrs ~element:"logger" ~allowed:[ "level"; "file" ] path n;
              (match Node.attr n "level" with
              | None | Some "debug" | Some "info" | Some "warn" | Some "error" -> ()
              | Some other -> err path "unknown log level %S" other);
              (match Node.attr n "file" with
              | None -> ()
              | Some f ->
                let dir =
                  match String.rindex_opt f '/' with
                  | Some 0 -> "/"
                  | Some i -> String.sub f 0 i
                  | None -> "."
                in
                if not (List.mem dir Mini_appserver.existing_dirs) then
                  err path "cannot open log file %S" f)
            | "host" ->
              check_attrs ~element:"host" ~allowed:[ "name"; "appBase"; "defaultApp" ]
                path n;
              sc.as_host_at <- Some path;
              (match Node.attr n "appBase" with
              | Some base -> sc.as_app_base <- base
              | None -> ());
              (match Node.attr n "defaultApp" with
              | Some app -> sc.as_default_app <- app
              | None -> ());
              go path n.children
            | "realm" -> (
              check_attrs ~element:"realm" ~allowed:[ "users" ] path n;
              match Node.attr n "users" with
              | None -> ()
              | Some f when List.mem f Mini_appserver.existing_files -> ()
              | Some f -> err path "realm user database %S not found" f)
            | _ -> () (* unknown element: silently skipped; AS-ELEMENT's *))
        children
    in
    go [] root.children);
  sc

let as_attr =
  Rule.make ~id:"AS-ATTR" ~severity:Finding.Error
    ~doc:"attributes of known elements are strictly validated (agreement)"
    (Rule.Check_set (fun set -> List.rev (as_run set).as_attr_errors))

let as_noconn =
  Rule.make ~id:"AS-NOCONN" ~severity:Finding.Error
    ~doc:"at least one connector must be configured (agreement)"
    (Rule.Check_set
       (fun set ->
         let sc = as_run set in
         if sc.as_have_file && sc.as_ports = [] then
           [ raw ~file:as_file ~path:[] "no connectors configured" ]
         else []))

let as_functional =
  Rule.make ~id:"AS-FUNCTIONAL" ~severity:Finding.Warning
    ~doc:
      "the HTTP probe GETs port 8080 and expects appBase /srv/webapps with a \
       default application (gap: survives startup)"
    (Rule.Check_set
       (fun set ->
         let sc = as_run set in
         if not sc.as_have_file then []
         else begin
           let out = ref [] in
           let emit path m = out := raw ~file:as_file ~path m :: !out in
           if sc.as_ports <> [] && not (List.mem 8080 sc.as_ports) then
             emit
               (Option.value ~default:[] sc.as_first_connector)
               (Printf.sprintf
                  "the HTTP probe connects to port 8080; connectors listen on: %s"
                  (String.concat "," (List.map string_of_int sc.as_ports)));
           let host = Option.value ~default:[] sc.as_host_at in
           if sc.as_app_base <> "/srv/webapps" then
             emit host
               (Printf.sprintf
                  "404 predicted: appBase %S has no applications (the probe expects \
                   /srv/webapps)"
                  sc.as_app_base);
           if sc.as_default_app = "" then
             emit host "404 predicted: no default application deployed";
           List.rev !out
         end))

let appserver = [ as_element; as_attr; as_noconn; as_functional ]

(* ------------------------------------------------------------------ *)

let all =
  [
    ("postgres", postgres);
    ("mysql", mysql);
    ("apache", apache);
    ("bind", bind);
    ("djbdns", djbdns);
    ("appserver", appserver);
  ]

let for_sut name = List.assoc_opt name all

(* Distinct rule ids of a set, first-appearance order.  Several rules
   share one id (PG-VALUE is one rule per parameter spec, PG-REQUIRED
   one per stock directive); the id is the unit the inference differ
   and the acceptance tests count recovery over. *)
let ids rules =
  List.rev
    (List.fold_left
       (fun acc (r : Conferr_lint.Rule.t) ->
         if List.mem r.id acc then acc else r.id :: acc)
       [] rules)
