(** Simulated Apache HTTP Server 2.2.

    Behaviours reproduced (paper §5.2 and Table 2):

    - directive names are case-insensitive; an unknown name aborts
      startup with "Invalid command ... perhaps misspelled or defined by
      a module not included in the server configuration"
    - directives are provided by modules: deleting (or typo-ing) a
      [LoadModule] line makes every directive of that module an invalid
      command — the mechanism behind many startup-detected faults
    - [AddType]/[DefaultType] accept freeform strings instead of
      RFC-2045 [type/subtype] values (flaw); [ServerAdmin] and
      [ServerName] likewise accept anything (flaws)
    - a typo in [Listen]'s port survives startup and is only caught by
      the functional HTTP GET (the paper's 5% functional detections)
    - nested sections ([<VirtualHost>], [<Directory>], [<IfModule>]);
      [<IfModule>] bodies are skipped when the module is absent
    - enum-valued directives ([LogLevel], [KeepAlive], [Options], ...)
      are strictly validated

    Startup is a [LoadModule] pre-pass over every section, then one walk
    over the parsed tree with one table lookup per directive (owning
    module and value validator).  The first failing check aborts startup,
    and its message becomes the scenario's outcome detail in campaign
    journals and profiles.  The error strings, including the directive
    name as written, and the order in which checks run are therefore part
    of the journal contract: [test/test_apache_boot_pin.ml] pins them. *)

val sut : Sut.t

(** {1 Exposed for white-box unit tests} *)

val known_module : string -> bool

val directive_module : string -> string option
(** The module a directive comes from ([None] = core). *)

(** {1 Exposed for the static rule set ({!Lint_rules.apache})} *)

val modules : (string * string) list
(** Module identifier to canonical [LoadModule] path. *)

val known_sections : string list
(** Lowercased section names [process] understands. *)

val ifmodule_ref : string -> string * bool
(** The module identifier an [<IfModule>] argument names (mapping
    [mod_x.c] to [x_module]) and whether the test is negated (["!"]). *)

val validate_directive :
  loaded:string list -> string -> string -> (unit, string) result
(** [validate_directive ~loaded name args] runs the server's own
    directive validation against a throwaway state: the exact
    known/module-gating/value checks of startup, without the side
    effects.  [loaded] is the set of loaded module identifiers. *)
