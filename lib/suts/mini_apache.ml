module Strutil = Conferr_util.Strutil
module Node = Conftree.Node

(* ------------------------------------------------------------------ *)
(* Module registry: module identifier -> canonical shared-object path   *)
(* ------------------------------------------------------------------ *)

let modules =
  [
    ("authz_host_module", "modules/mod_authz_host.so");
    ("auth_basic_module", "modules/mod_auth_basic.so");
    ("authn_file_module", "modules/mod_authn_file.so");
    ("include_module", "modules/mod_include.so");
    ("log_config_module", "modules/mod_log_config.so");
    ("env_module", "modules/mod_env.so");
    ("expires_module", "modules/mod_expires.so");
    ("headers_module", "modules/mod_headers.so");
    ("setenvif_module", "modules/mod_setenvif.so");
    ("mime_module", "modules/mod_mime.so");
    ("status_module", "modules/mod_status.so");
    ("autoindex_module", "modules/mod_autoindex.so");
    ("info_module", "modules/mod_info.so");
    ("dir_module", "modules/mod_dir.so");
    ("alias_module", "modules/mod_alias.so");
    ("rewrite_module", "modules/mod_rewrite.so");
    ("negotiation_module", "modules/mod_negotiation.so");
    ("userdir_module", "modules/mod_userdir.so");
    ("actions_module", "modules/mod_actions.so");
    ("speling_module", "modules/mod_speling.so");
    ("vhost_alias_module", "modules/mod_vhost_alias.so");
    ("deflate_module", "modules/mod_deflate.so");
    ("cgi_module", "modules/mod_cgi.so");
    ("dav_module", "modules/mod_dav.so");
    ("dav_fs_module", "modules/mod_dav_fs.so");
    ("proxy_module", "modules/mod_proxy.so");
    ("proxy_http_module", "modules/mod_proxy_http.so");
    ("ssl_module", "modules/mod_ssl.so");
    ("cache_module", "modules/mod_cache.so");
    ("disk_cache_module", "modules/mod_disk_cache.so");
  ]

let module_paths = Hashtbl.of_seq (List.to_seq modules)

let known_module name = Hashtbl.mem module_paths name

let existing_dirs =
  [ "/etc/httpd"; "/var/www/html"; "/var/www/cgi-bin"; "/var/www/error";
    "/var/www/icons"; "/var/log/httpd"; "/var/run"; "/home" ]

let existing_files = [ "/etc/mime.types"; "/etc/httpd/conf/magic" ]

let known_users = [ "apache"; "www-data"; "daemon"; "nobody" ]

let known_groups = known_users

let mem s l = List.exists (String.equal s) l

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let parse_port s =
  (* "80" or "1.2.3.4:80" or "[::]:80" *)
  let port_text =
    match String.rindex_opt s ':' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  if is_digits port_text then
    let p = int_of_string port_text in
    if p >= 1 && p <= 65535 then Ok p
    else Error (Printf.sprintf "port %d is out of range" p)
  else Error (Printf.sprintf "Invalid port in %S" s)

let dir_of_path p =
  match String.rindex_opt p '/' with
  | Some 0 -> "/"
  | Some i -> String.sub p 0 i
  | None -> "."

(* ------------------------------------------------------------------ *)
(* Directive table: lowercase name -> owning module, value validator    *)
(* ------------------------------------------------------------------ *)

type validator =
  | Anything                 (* the flaw: freeform strings accepted *)
  | Number
  | On_off
  | On_off_or of string list
  | Enum of string list
  | Port_list
  | Existing_dir
  | Log_path                 (* parent directory must exist; '|' pipes ok *)
  | Existing_file
  | User_name
  | Group_name
  | Options_list
  | Override_list
  | Order_arg
  | From_list
  | Min_args of int

(* Core directives.  Most accept anything — the laxity the paper
   criticizes. *)
let core_directives =
  [
    ("serverroot", Existing_dir);
    ("listen", Port_list);
    ("user", User_name);
    ("group", Group_name);
    ("serveradmin", Anything) (* flaw: should be a URL or email address *);
    ("servername", Anything) (* flaw: should be a DNS host name *);
    ("usecanonicalname", On_off_or [ "dns" ]);
    ("documentroot", Anything) (* checked at request time, not startup *);
    ("errorlog", Log_path);
    ("loglevel", Enum [ "debug"; "info"; "notice"; "warn"; "error"; "crit"; "alert"; "emerg" ]);
    ("pidfile", Log_path);
    ("timeout", Number);
    ("keepalive", On_off);
    ("maxkeepaliverequests", Number);
    ("keepalivetimeout", Number);
    ("startservers", Number);
    ("minspareservers", Number);
    ("maxspareservers", Number);
    ("serverlimit", Number);
    ("maxclients", Number);
    ("maxrequestsperchild", Number);
    ("defaulttype", Anything) (* flaw: should be type/subtype per RFC 2045 *);
    ("hostnamelookups", On_off_or [ "double" ]);
    ("servertokens", Enum [ "prod"; "major"; "minor"; "min"; "os"; "full" ]);
    ("serversignature", On_off_or [ "email" ]);
    ("adddefaultcharset", Anything);
    ("enablemmap", On_off);
    ("enablesendfile", On_off);
    ("accessfilename", Anything);
    ("namevirtualhost", Port_list);
    ("options", Options_list);
    ("allowoverride", Override_list);
    ("errordocument", Min_args 2);
    ("include", Existing_file);
    ("traceenable", On_off_or [ "extended" ]);
  ]

(* Directives owned by loadable modules: invalid commands unless the
   module is loaded, and value-checked once it is. *)
let module_directives =
  [
    ("authz_host_module", [ ("order", Order_arg); ("allow", From_list); ("deny", From_list) ]);
    ("auth_basic_module", [ ("authtype", Anything); ("authname", Anything) ]);
    ("authn_file_module", [ ("authuserfile", Anything) ]);
    ("log_config_module", [ ("customlog", Min_args 2); ("logformat", Min_args 1) ]);
    ("env_module", [ ("setenv", Min_args 1) ]);
    ("expires_module", [ ("expiresactive", Anything) ]);
    ("headers_module", [ ("header", Anything) ]);
    ("setenvif_module", [ ("setenvif", Min_args 2); ("browsermatch", Min_args 2) ]);
    ( "mime_module",
      [
        ("addtype", Min_args 2) (* flaw: the type itself is not validated *);
        ("addencoding", Min_args 2);
        ("addhandler", Min_args 2);
        ("typesconfig", Existing_file);
      ] );
    ("status_module", [ ("extendedstatus", On_off) ]);
    ( "autoindex_module",
      [
        ("indexoptions", Min_args 1);
        ("addicon", Min_args 2);
        ("addiconbytype", Min_args 2);
        ("defaulticon", Min_args 1);
        ("readmename", Min_args 1);
        ("headername", Min_args 1);
      ] );
    ("info_module", [ ("addinfo", Anything) ]);
    ("dir_module", [ ("directoryindex", Min_args 1) ]);
    ("alias_module", [ ("alias", Min_args 2); ("scriptalias", Min_args 2); ("redirect", Min_args 1) ]);
    ("rewrite_module", [ ("rewriteengine", On_off); ("rewriterule", Anything) ]);
    ( "negotiation_module",
      [ ("languagepriority", Min_args 1); ("addlanguage", Min_args 2);
        ("forcelanguagepriority", Min_args 1) ] );
    ("userdir_module", [ ("userdir", Min_args 1) ]);
    ("actions_module", [ ("action", Anything) ]);
    ("speling_module", [ ("checkspelling", Anything) ]);
    ("deflate_module", [ ("deflatecompressionlevel", Anything) ]);
    ("cgi_module", [ ("scriptsock", Anything) ]);
    ("dav_fs_module", [ ("davlockdb", Anything) ]);
    ("proxy_module", [ ("proxyrequests", Anything) ]);
    ("ssl_module", [ ("sslengine", Anything); ("sslcertificatefile", Anything) ]);
    ("cache_module", [ ("cacheenable", Anything) ]);
    ("disk_cache_module", [ ("cacheroot", Anything) ]);
  ]

(* Directive names compare up to ASCII case, so a name is looked up as
   written, without lowercasing it first. *)
module Name = struct
  type t = string

  let equal a b =
    let n = String.length a in
    let rec from i =
      i = n || (Char.lowercase_ascii a.[i] = Char.lowercase_ascii b.[i] && from (i + 1))
    in
    n = String.length b && from 0

  let hash s =
    String.fold_left (fun h c -> (h * 31) + Char.code (Char.lowercase_ascii c)) 0 s
    land max_int
end

module Names = Hashtbl.Make (Name)

(* Name -> (lowercase name, owning module, validator).  Built once at
   module init and only read afterwards, so worker domains share it. *)
let directives =
  let t = Names.create 128 in
  let add owner (name, v) = Names.replace t name (name, owner, v) in
  List.iter (add None) core_directives;
  List.iter (fun (m, ds) -> List.iter (add (Some m)) ds) module_directives;
  t

let directive_module name =
  Option.bind (Names.find_opt directives name) (fun (_, owner, _) -> owner)

let option_tokens =
  [ "indexes"; "includes"; "followsymlinks"; "symlinksifownermatch"; "execcgi";
    "multiviews"; "none"; "all" ]

let override_tokens =
  [ "authconfig"; "fileinfo"; "indexes"; "limit"; "options"; "none"; "all" ]

type state = {
  mutable listeners : int list;
  mutable document_root : string;
  mutable loaded : string list;    (* module identifiers *)
  mutable directory_index : string list;
  mutable vhost_roots : (int * string) list;
}

let new_state loaded =
  { listeners = []; document_root = ""; loaded; directory_index = []; vhost_roots = [] }

let is_loaded state m = mem m state.loaded

let strip_quotes s =
  if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"' then
    String.sub s 1 (String.length s - 2)
  else s

let validate_value state name validator args =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match validator with
  | Anything -> Ok ()
  | Number ->
    (match args with
     | [ v ] when is_digits v -> Ok ()
     | _ -> fail "%s takes one numeric argument" name)
  | On_off ->
    (match List.map String.lowercase_ascii args with
     | [ "on" ] | [ "off" ] -> Ok ()
     | _ -> fail "%s must be On or Off" name)
  | On_off_or extra ->
    (match List.map String.lowercase_ascii args with
     | [ v ] when v = "on" || v = "off" || mem v extra -> Ok ()
     | _ -> fail "%s must be On, Off%s" name
              (String.concat "" (List.map (fun e -> " or " ^ e) extra)))
  | Enum allowed ->
    (match List.map String.lowercase_ascii args with
     | [ v ] when mem v allowed -> Ok ()
     | _ -> fail "%s must be one of %s" name (String.concat "|" allowed))
  | Port_list ->
    (match args with
     | [ spec ] ->
       (match parse_port spec with
        | Ok p ->
          if name = "listen" then state.listeners <- state.listeners @ [ p ];
          Ok ()
        | Error msg -> Error msg)
     | _ -> fail "%s takes one address or port argument" name)
  | Existing_dir ->
    (match args with
     | [ d ] when mem d existing_dirs -> Ok ()
     | [ d ] ->
       (* the shipped configs quote paths; unquote before checking *)
       if mem (strip_quotes d) existing_dirs then Ok ()
       else fail "%s: could not open directory %s" name d
     | _ -> fail "%s takes one directory argument" name)
  | Existing_file ->
    (match args with
     | [ f ] when mem (strip_quotes f) existing_files -> Ok ()
     | [ f ] -> fail "%s: could not open file %s" name f
     | _ -> fail "%s takes one file argument" name)
  | Log_path ->
    (match args with
     | [ p ] ->
       let p = strip_quotes p in
       if String.length p > 0 && p.[0] = '|' then Ok ()
       else if mem (dir_of_path p) existing_dirs then Ok ()
       else fail "%s: could not open log file %s" name p
     | _ -> fail "%s takes one argument" name)
  | User_name ->
    (match args with
     | [ u ] when mem u known_users -> Ok ()
     | [ u ] -> fail "bad user name %s" u
     | _ -> fail "User takes one argument")
  | Group_name ->
    (match args with
     | [ g ] when mem g known_groups -> Ok ()
     | [ g ] -> fail "bad group name %s" g
     | _ -> fail "Group takes one argument")
  | Options_list ->
    let bad =
      List.find_opt
        (fun a ->
          let a = String.lowercase_ascii a in
          let a =
            if String.length a > 0 && (a.[0] = '+' || a.[0] = '-') then
              String.sub a 1 (String.length a - 1)
            else a
          in
          not (mem a option_tokens))
        args
    in
    (match bad with
     | Some a -> fail "Illegal option %s" a
     | None -> Ok ())
  | Override_list ->
    (match
       List.find_opt (fun a -> not (mem (String.lowercase_ascii a) override_tokens)) args
     with
     | Some a -> fail "Illegal override option %s" a
     | None -> Ok ())
  | Order_arg ->
    (match List.map String.lowercase_ascii args with
     | [ "allow,deny" ] | [ "deny,allow" ] | [ "mutual-failure" ] -> Ok ()
     | _ -> fail "unknown order")
  | From_list ->
    (match List.map String.lowercase_ascii args with
     | "from" :: _ :: _ -> Ok ()
     | _ -> fail "%s takes 'from <host>' arguments" name)
  | Min_args n ->
    if List.length args >= n then Ok ()
    else fail "%s takes at least %d argument(s)" name n

(* ------------------------------------------------------------------ *)
(* Config processing: two walks over the parsed tree                    *)
(* ------------------------------------------------------------------ *)

let load_module state args =
  match Strutil.fields args with
  | [ name; path ] ->
    (match Hashtbl.find_opt module_paths name with
     | Some canonical when strip_quotes path = canonical ->
       state.loaded <- name :: state.loaded;
       Ok ()
     | Some canonical ->
       Error
         (Printf.sprintf
            "Cannot load %s into server: %s: cannot open shared object file (expected \
             %s)"
            path path canonical)
     | None ->
       Error
         (Printf.sprintf "Cannot load %s into server: undefined module %s" path name))
  | _ -> Error "LoadModule takes two arguments"

(* One table lookup decides known, module-gated and value check. *)
let handle_directive state ~vhost_port name args =
  if Name.equal name "loadmodule" then load_module state args
  else
    match Names.find_opt directives name with
    | Some (lname, owner, validator)
      when match owner with None -> true | Some m -> is_loaded state m ->
      let args = Strutil.fields args in
      let r = validate_value state lname validator args in
      if r = Ok () then begin
        match lname with
        | "documentroot" ->
          let root = strip_quotes (match args with a :: _ -> a | [] -> "") in
          (match vhost_port with
           | None -> state.document_root <- root
           | Some p -> state.vhost_roots <- (p, root) :: state.vhost_roots)
        | "directoryindex" -> state.directory_index <- args
        | _ -> ()
      end;
      r
    | Some _ | None ->
      Error
        (Printf.sprintf
           "Invalid command '%s', perhaps misspelled or defined by a module not \
            included in the server configuration"
           name)

(* Keep in sync with the section match in [process]. *)
let known_sections =
  [ "ifmodule"; "virtualhost"; "directory"; "files"; "location"; "limit" ]

let ifmodule_ref arg =
  let a = Strutil.trim arg in
  let negated = String.length a > 0 && a.[0] = '!' in
  let a = if negated then String.sub a 1 (String.length a - 1) else a in
  (* <IfModule mod_userdir.c> names the source file; map it to the
     module identifier used by LoadModule. *)
  let mod_name =
    match Strutil.drop_prefix ~prefix:"mod_" a with
    | Some rest when Filename.check_suffix rest ".c" ->
      Filename.chop_suffix rest ".c" ^ "_module"
    | Some _ | None -> a
  in
  (mod_name, negated)

(* [f] on each element in order, stopping at the first error. *)
let rec each f = function
  | [] -> Ok ()
  | n :: rest -> (match f n with Ok () -> each f rest | Error _ as e -> e)

let rec process state ~vhost_port (n : Node.t) =
  if n.kind = Node.kind_directive then
    if Name.equal n.name "loadmodule" then Ok () (* the pre-pass loaded it *)
    else handle_directive state ~vhost_port n.name (Node.value_or ~default:"" n)
  else if n.kind <> Node.kind_section then Ok ()
  else
    let body vhost_port = each (process state ~vhost_port) n.children in
    let arg = Option.value ~default:"" (Node.attr n "arg") in
    match String.lowercase_ascii n.name with
    | "ifmodule" ->
      let mod_name, negated = ifmodule_ref arg in
      if is_loaded state mod_name <> negated then body vhost_port
      else Ok () (* body skipped entirely: even invalid commands are ignored *)
    | "virtualhost" ->
      (match parse_port (Strutil.trim arg) with
       | Ok p -> body (Some p)
       | Error _ when Strutil.trim arg = "*" -> body (Some 80)
       | Error msg -> Error (Printf.sprintf "VirtualHost: %s" msg))
    | "directory" | "files" | "location" | "limit" -> body vhost_port
    | other ->
      Error
        (Printf.sprintf
           "Invalid command '<%s', perhaps misspelled or defined by a module not \
            included in the server configuration"
           other)

(* httpd resolves LoadModule before the bulk of the configuration is
   interpreted (the shipped configs rely on this), so module loading is a
   separate first pass over the whole tree. *)
let rec preload_modules state (n : Node.t) =
  if n.kind = Node.kind_section then each (preload_modules state) n.children
  else if n.kind = Node.kind_directive && Name.equal n.name "loadmodule" then
    load_module state (Node.value_or ~default:"" n)
  else Ok ()

let validate_directive ~loaded name args =
  handle_directive (new_state loaded) ~vhost_port:None name args

(* ------------------------------------------------------------------ *)
(* Functional test: an HTTP GET, like the paper's diagnosis script       *)
(* ------------------------------------------------------------------ *)

let docroot_has_index root = root = "/var/www/html"

let functional_tests state () =
  let expected_port = 80 in
  if not (List.mem expected_port state.listeners) then
    [
      Sut.failed "http-get"
        (Printf.sprintf "connection refused on port %d (listening on: %s)" expected_port
           (String.concat "," (List.map string_of_int state.listeners)));
    ]
  else begin
    let root =
      match List.assoc_opt expected_port state.vhost_roots with
      | Some r -> r
      | None -> state.document_root
    in
    if not (docroot_has_index root) then
      [ Sut.failed "http-get" (Printf.sprintf "404 Not Found (DocumentRoot %s)" root) ]
    else if not (mem "index.html" state.directory_index) then
      [ Sut.failed "http-get" "403 Forbidden (no DirectoryIndex maps /)" ]
    else [ Sut.passed "http-get" ]
  end

let boot configs =
  match List.assoc_opt "httpd.conf" configs with
  | None -> Error "httpd.conf not found"
  | Some main_text ->
    (* httpd.conf ends with an Include of ssl.conf; the two files form
       one configuration (the paper's multi-file Apache example). *)
    let text =
      match List.assoc_opt "ssl.conf" configs with
      | Some ssl -> main_text ^ "\n" ^ ssl
      | None -> main_text
    in
    (* The SUT's own reader: the injector's grammar, Apache's messages. *)
    (match Formats.Apacheconf.parse text with
     | Error e -> Error (Printf.sprintf "Syntax error: %s" (Formats.Parse_error.to_string e))
     | Ok tree ->
       let state = new_state [] in
       (match
          match each (preload_modules state) tree.children with
          | Ok () -> each (process state ~vhost_port:None) tree.children
          | Error _ as e -> e
        with
        | Error msg -> Error msg
        | Ok () when state.listeners = [] ->
          Error "no listening sockets available, shutting down"
        | Ok () ->
          Ok { Sut.run_tests = functional_tests state; shutdown = (fun () -> ()) }))

let default_config =
  let load (name, path) = Printf.sprintf "LoadModule %s %s" name path in
  String.concat "\n"
    ([
       "# Apache HTTP Server main configuration";
       "ServerRoot /etc/httpd";
       "Listen 80";
       "PidFile /var/run/httpd.pid";
       "Timeout 120";
       "KeepAlive Off";
       "MaxKeepAliveRequests 100";
       "KeepAliveTimeout 15";
       "StartServers 8";
       "MinSpareServers 5";
       "MaxSpareServers 20";
       "ServerLimit 256";
       "MaxClients 256";
       "MaxRequestsPerChild 4000";
     ]
    @ List.map load modules
    @ [
        "User apache";
        "Group apache";
        "ServerAdmin root@localhost";
        "ServerName www.example.com";
        "UseCanonicalName Off";
        "DocumentRoot /var/www/html";
        "DirectoryIndex index.html index.html.var";
        "AccessFileName .htaccess";
        "TypesConfig /etc/mime.types";
        "DefaultType text/plain";
        "HostnameLookups Off";
        "ErrorLog /var/log/httpd/error_log";
        "LogLevel warn";
        "LogFormat \"%h %l %u %t\" common";
        "CustomLog /var/log/httpd/access_log common";
        "ServerTokens OS";
        "ServerSignature On";
        "Alias /icons/ /var/www/icons/";
        "ScriptAlias /cgi-bin/ /var/www/cgi-bin/";
        "IndexOptions FancyIndexing VersionSort NameWidth=*";
        "AddIconByType (TXT,/icons/text.gif) text/*";
        "DefaultIcon /icons/unknown.gif";
        "ReadmeName README.html";
        "HeaderName HEADER.html";
        "AddLanguage en .en";
        "AddLanguage fr .fr";
        "LanguagePriority en fr";
        "ForceLanguagePriority Prefer Fallback";
        "AddDefaultCharset UTF-8";
        "AddType application/x-compress .Z";
        "AddType application/x-gzip .gz .tgz";
        "AddHandler type-map var";
        "AddEncoding x-compress .Z";
        "AddEncoding x-gzip .gz .tgz";
        "BrowserMatch \"Mozilla/2\" nokeepalive";
        "BrowserMatch \"MSIE 4\\.0b2;\" nokeepalive downgrade-1.0";
        "SetEnvIf Request_URI \"\\.gif$\" object-is-image";
        "SetEnv APP_ENV production";
        "<Directory />";
        "  Options FollowSymLinks";
        "  AllowOverride None";
        "</Directory>";
        "<Directory \"/var/www/html\">";
        "  Options Indexes FollowSymLinks";
        "  AllowOverride None";
        "  Order allow,deny";
        "  Allow from all";
        "</Directory>";
        "<Directory \"/var/www/cgi-bin\">";
        "  AllowOverride None";
        "  Options None";
        "  Order allow,deny";
        "  Allow from all";
        "</Directory>";
        "<IfModule mod_userdir.c>";
        "  UserDir disabled";
        "</IfModule>";
        "<VirtualHost *:80>";
        "  ServerName www.example.com";
        "  DocumentRoot /var/www/html";
        "  ErrorLog /var/log/httpd/vhost_error_log";
        "  CustomLog /var/log/httpd/vhost_access_log common";
        "</VirtualHost>";
        "";
      ])

let ssl_config =
  String.concat "\n"
    [
      "# SSL virtual host configuration";
      "Listen 8443";
      "AddType application/x-x509-ca-cert .crt";
      "AddType application/x-pkcs7-crl .crl";
      "<VirtualHost *:8443>";
      "  ServerName www.example.com";
      "  DocumentRoot /var/www/html";
      "  ErrorLog /var/log/httpd/ssl_error_log";
      "  CustomLog /var/log/httpd/ssl_access_log common";
      "  SSLEngine on";
      "  SSLCertificateFile /etc/httpd/conf/magic";
      "</VirtualHost>";
      "";
    ]

let sut =
  {
    Sut.sut_name = "apache";
    version = "Apache httpd 2.2.6 (simulated)";
    config_files =
      [
        ("httpd.conf", Formats.Registry.apacheconf);
        ("ssl.conf", Formats.Registry.apacheconf);
      ];
    default_config = [ ("httpd.conf", default_config); ("ssl.conf", ssl_config) ];
    boot;
  }
