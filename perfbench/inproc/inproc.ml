(* In-process traced replay of the benchmark workloads (perfbench/README.md).

   The end-to-end numbers come from the shipped [conferr] binary.  This
   program replays the same operations through the library entry points
   the CLI calls and records a span around every call into a layer, so
   that the per-layer metrics and the trace come from one process.  The
   spans are recorded by this file, not by the program: tracing inside
   the library is separate work.

   Usage:
     inproc.exe --workload W --seed S --ops N --rate R --dir DIR --out TRACE

   Prints one JSON object of per-layer metrics as the last line of
   standard output and writes the spans to TRACE as Chrome trace-event
   JSON (open it in ui.perfetto.dev). *)

module Json = Conferr_obsv.Json
module Journal = Conferr_exec.Journal
module Executor = Conferr_exec.Executor
module Daemon = Conferr_serve.Daemon
module Http = Conferr_serve.Http
module Pipeline = Conferr_repair.Pipeline
module Generate = Conferr_repair.Generate
module Validate = Conferr_repair.Validate
module Finding = Conferr_lint.Finding

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sid : int;
  name : string;
  op : int;  (** operation id; 0 for spans outside any operation *)
  parent : int;  (** 0 for a root span *)
  t0 : float;
  t1 : float;
}

let now = Unix.gettimeofday
let lock = Mutex.create ()
let spans : span list ref = ref []
let last_id = ref 0
let fresh_id () = Mutex.protect lock (fun () -> incr last_id; !last_id)
let add s = Mutex.protect lock (fun () -> spans := s :: !spans)

(* Off during the untraced replay that the tracing overhead is measured
   against; [span] is then a plain call. *)
let tracing = ref true

(* Span nesting for the main thread.  Spans closed from other threads
   (daemon campaign watchers) name their parent explicitly. *)
let stack : int list ref = ref []
let cur_op = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let sid = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := sid :: !stack;
    let t0 = now () in
    let finish () =
      stack := List.tl !stack;
      add { sid; name; op = !cur_op; parent; t0; t1 = now () }
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let named name = List.filter (fun s -> s.name = name) !spans
let dur s = s.t1 -. s.t0
let total name = List.fold_left (fun acc s -> acc +. dur s) 0. (named name)
let count name = List.length (named name)

let percentile p = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let k = p *. float_of_int (Array.length a - 1) in
    let lo = truncate k in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((k -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median_ms name = 1000. *. percentile 0.5 (List.map dur (named name))
let mean_us name = 1e6 *. total name /. float_of_int (max 1 (count name))

let write_trace path =
  let events =
    List.rev_map
      (fun s ->
        Json.Obj
          [
            ("name", Json.Str s.name);
            ("ph", Json.Str "X");
            ("ts", Json.Num (s.t0 *. 1e6));
            ("dur", Json.Num ((s.t1 -. s.t0) *. 1e6));
            ("pid", Json.Num 1.);
            ("tid", Json.Num (float_of_int s.op));
            ( "args",
              Json.Obj
                [
                  ("id", Json.Num (float_of_int s.sid));
                  ("parent", Json.Num (float_of_int s.parent));
                  ("op", Json.Num (float_of_int s.op));
                ] );
          ])
      !spans
  in
  let oc = open_out_bin path in
  output_string oc (Json.to_string (Json.Obj [ ("traceEvents", Json.Arr events) ]));
  close_out oc

(* Share of operation wall time that no child span of the operation
   covers: each root "op" span minus the union of its direct
   children. *)
let residual_share () =
  let ops = named "op" in
  let covered root =
    let kids =
      List.filter (fun s -> s.parent = root.sid) !spans
      |> List.map (fun s -> (Float.max s.t0 root.t0, Float.min s.t1 root.t1))
      |> List.sort compare
    in
    let _, acc =
      List.fold_left
        (fun (edge, acc) (a, b) ->
          let a = Float.max a edge in
          if b > a then (b, acc +. (b -. a)) else (edge, acc))
        (root.t0, 0.) kids
    in
    acc
  in
  let wall = List.fold_left (fun acc s -> acc +. dur s) 0. ops in
  let cov = List.fold_left (fun acc s -> acc +. covered s) 0. ops in
  if wall > 0. then (wall -. cov) /. wall else nan

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let sut_named name =
  match Suts.Catalog.find name with
  | Some s -> s
  | None -> failwith ("unknown SUT " ^ name)

let stock sut =
  match Conferr.Engine.parse_default_config sut with
  | Ok base -> base
  | Error msg -> failwith msg

let generate sut base seed =
  Conferr.Campaign.typo_scenarios ~rng:(Conferr_util.Rng.create seed)
    ~faultload:Conferr.Campaign.paper_faultload sut base

(* The serve workload's seeded round-robin; run.py uses the same rule. *)
let serve_mix = [| "postgres"; "mysql"; "djbdns"; "appserver" |]
let serve_sut ~seed i = serve_mix.((seed + i) mod Array.length serve_mix)

let settings ~jobs ~seed journal =
  {
    Executor.default_settings with
    jobs;
    campaign_seed = seed;
    journal_path = journal;
  }

let failed = ref 0
let attempted = ref 0

(* Counts behind the per-unit metrics, taken from traced runs only. *)
let generated = ref 0
let repaired_total = ref 0
let repair_runs = ref 0
let validations = ref 0

(* ------------------------------------------------------------------ *)
(* Campaign layers                                                     *)
(* ------------------------------------------------------------------ *)

(* One [conferr profile] operation: parse, generate, execute with a
   journal.  Returns what the layer probe needs. *)
let campaign ~sut ~seed ~jobs ~journal =
  let base = span "engine.parse" (fun () -> stock sut) in
  let scenarios = span "campaign.generate" (fun () -> generate sut base seed) in
  if !tracing then generated := !generated + List.length scenarios;
  let profile, _ =
    span "executor.run" (fun () ->
        Executor.run_from ~settings:(settings ~jobs ~seed (Some journal)) ~sut
          ~base ~scenarios ())
  in
  let n = List.length scenarios in
  if List.length profile.Conferr.Profile.entries <> n then
    failwith "profile does not cover the faultload";
  (base, scenarios)

(* Per-layer costs of one campaign's scenarios, outside any operation:
   apply / serialize / boot one scenario at a time (sandboxed and bare),
   journal append, checkpoint and load, faultload regeneration, and the
   pool at one and two domains. *)
let campaign_layers ~dir ~sut ~seed ~journal (base, scenarios) =
  List.iter
    (fun (s : Errgen.Scenario.t) ->
      match span "scenario.apply" (fun () -> s.apply base) with
      | Error _ -> ()
      | Ok set -> (
        match
          span "engine.serialize" (fun () ->
              Conferr.Engine.serialize_config sut set)
        with
        | Error _ -> ()
        | Ok files ->
          ignore
            (span "sandbox.boot" (fun () ->
                 Conferr_harden.Sandbox.boot_and_test sut files));
          ignore
            (span "engine.boot" (fun () ->
                 Conferr.Engine.boot_and_test sut files))))
    scenarios;
  let entries = span "journal.load" (fun () -> Journal.load journal) in
  ignore
    (span "faultload.regen" (fun () ->
         Conferr.Faultload.journal_scenarios ~seed sut base));
  let copy = Filename.concat dir "append.jsonl" in
  let w = Journal.open_append ~fresh:true copy in
  List.iter (fun e -> span "journal.append" (fun () -> Journal.append w e)) entries;
  Journal.close w;
  span "journal.checkpoint" (fun () -> Journal.checkpoint copy entries);
  List.iter
    (fun jobs ->
      ignore
        (span
           (Printf.sprintf "pool.run_j%d" jobs)
           (fun () ->
             Executor.run_from ~settings:(settings ~jobs ~seed None) ~sut ~base
               ~scenarios ())))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Daemon layers                                                       *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let request_bytes meth path body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    meth path (String.length body) body

let parse_request raw =
  match Http.parse_request (Http.reader_of_string raw) with
  | `Ok req -> req
  | `Eof | `Error _ -> failwith "unparseable request"

(* Submissions to an in-process daemon with two worker domains, through
   its HTTP handler.  Open loop: submission [i] is due at start + i/rate
   and its operation is timed from then.  Closed loop ([rate = 0]): each
   submission waits for the previous campaign.  A watcher thread per
   campaign follows its event stream and closes its spans. *)
let daemon_layers ~dir ~suts ~seed ~n ~rate ~op_base =
  let d =
    Daemon.create ~jobs:2 ~max_campaigns:100_000
      ~state_dir:(Filename.concat dir "serve") ()
  in
  let handle = Daemon.handle d in
  let start = now () +. 0.02 in
  let admits = ref [] in
  let watchers = ref [] in
  let latencies = ref [] in
  for i = 0 to n - 1 do
    let op = op_base + i in
    let due = if rate > 0. then start +. (float_of_int i /. rate) else now () in
    let wait = due -. now () in
    if wait > 0. then Thread.delay wait;
    let sut = suts i in
    let sub_seed = seed + i in
    incr attempted;
    cur_op := op;
    let root = fresh_id () in
    stack := [ root ];
    let body = Printf.sprintf {|{"sut":"%s","seed":%d}|} sut sub_seed in
    let req =
      span "http.parse" (fun () ->
          parse_request (request_bytes "POST" "/campaigns" body))
    in
    let t_admit = now () in
    let resp = span "daemon.admit" (fun () -> handle req) in
    let admitted = now () in
    stack := [];
    cur_op := 0;
    match resp with
    | `Response { Http.status = 202; resp_body; _ } ->
      admits := (sut, sub_seed, admitted -. t_admit) :: !admits;
      let id =
        match Result.map (Json.member "id") (Json.of_string resp_body) with
        | Ok (Some (Json.Str id)) -> id
        | _ -> failwith "submission answer without an id"
      in
      let events = parse_request (request_bytes "GET" ("/campaigns/" ^ id ^ "/events") "") in
      let watch () =
        let started = ref None in
        let ok = ref false in
        (match handle events with
         | `Stream (_, produce) ->
           produce (fun line ->
               let t = now () in
               if !started = None && contains line {|"event":"started"|} then
                 started := Some t;
               if contains line {|"event":"campaign"|} then
                 ok := contains line {|"status":"done"|})
         | `Response _ -> ());
        let t_end = now () in
        let t_start = Option.value ~default:t_end !started in
        if !tracing then begin
          add { sid = fresh_id (); name = "scheduler.queue_wait"; op; parent = root;
                t0 = admitted; t1 = t_start };
          add { sid = fresh_id (); name = "daemon.execute"; op; parent = root;
                t0 = t_start; t1 = t_end };
          add { sid = root; name = "op"; op; parent = 0; t0 = due; t1 = t_end }
        end;
        Mutex.protect lock (fun () ->
            if !ok then latencies := (t_end -. due) :: !latencies
            else incr failed)
      in
      let th = Thread.create watch () in
      if rate > 0. then watchers := th :: !watchers else Thread.join th
    | _ -> incr failed
  done;
  List.iter Thread.join !watchers;
  let retained = List.length (Daemon.campaigns d) in
  Daemon.drain d;
  (* admission minus generation for the same SUT and seed *)
  let self =
    List.map
      (fun (sut, sub_seed, admit) ->
        let sut = sut_named sut in
        let t0 = now () in
        ignore (generate sut (stock sut) sub_seed);
        admit -. (now () -. t0))
      !admits
  in
  (retained, self, !latencies)

(* ------------------------------------------------------------------ *)
(* Repair layers                                                       *)
(* ------------------------------------------------------------------ *)

(* [conferr repair --journal] at --jobs 1: one real [Pipeline.run] over
   the journal's targets, then probes of its layers on the same targets
   outside the span of the run.  Lint and candidate generation are
   timed on every target that needs them, clustering on the target's
   lint messages, and validation on the candidate the pipeline chose.
   Fails unless the pipeline reports 150 repaired, 18 already clean. *)
let repair ~sut ~journal ~seed =
  let nearest = Conferr.Suggest.nearest in
  let rules = Option.get (Suts.Lint_rules.for_sut sut.Suts.Sut.sut_name) in
  let stock = span "engine.parse" (fun () -> stock sut) in
  let entries = span "journal.load" (fun () -> Journal.load journal) in
  let scenarios =
    span "faultload.regen" (fun () ->
        Conferr.Faultload.journal_scenarios ~seed sut stock)
  in
  let targets =
    span "repair.targets" (fun () ->
        Pipeline.journal_targets ~scenarios ~stock entries)
  in
  let result =
    span "repair.run" (fun () -> Pipeline.run ~jobs:1 ~nearest ~sut ~rules ~stock targets)
  in
  let r, c, u, k = Pipeline.counts result in
  if (r, c, u, k) <> (150, 18, 0, 0) then
    failwith (Printf.sprintf "repair reported %d/%d/%d/%d" r c u k);
  validations := !validations + result.validated;
  repaired_total := !repaired_total + r;
  incr repair_runs;
  List.iter2
    (fun (tg : Pipeline.target) (rp : Pipeline.repair) ->
      match tg.tg_config with
      | Error _ -> ()
      | Ok broken ->
        let typed =
          span "checker.lint" (fun () -> Generate.typed_findings ~nearest ~rules broken)
        in
        if rp.r_status <> Pipeline.Already_clean then begin
          let messages = List.map (fun (_, (f : Finding.t)) -> f.message) typed in
          ignore
            (span "cluster" (fun () ->
                 Conferr_repair.Cluster.candidates ~stock ~broken ~messages ()));
          ignore
            (span "generate.candidates" (fun () ->
                 Generate.candidates ~nearest ~sut ~rules ~stock ~broken ()))
        end;
        Option.iter
          (fun (v : Validate.verdict) ->
            ignore
              (span "validate" (fun () ->
                   Validate.check ~nearest ~sut ~rules ~broken v.candidate)))
          rp.r_chosen)
    targets result.repairs

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Run operation [i] untraced, then traced inside a root "op" span, and
   [after i] outside any operation; return the untraced and traced wall
   times of the operations that succeeded. *)
let replay ~ops ?(after = fun _ -> ()) op =
  let plain = ref [] and traced = ref [] in
  for i = 0 to ops - 1 do
    List.iter
      (fun on ->
        incr attempted;
        tracing := on;
        cur_op := i + 1;
        let t0 = now () in
        (match if on then span "op" (fun () -> op i) else op i with
         | () ->
           let dt = now () -. t0 in
           if on then traced := dt :: !traced else plain := dt :: !plain
         | exception e ->
           Printf.eprintf "inproc: op %d failed: %s\n%!" i (Printexc.to_string e);
           incr failed);
        stack := [];
        cur_op := 0;
        tracing := true)
      [ false; true ];
    after i
  done;
  (!plain, !traced)

let () =
  let workload = ref "" and seed = ref 0 and ops = ref 1 and rate = ref 0. in
  let dir = ref "" and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W");
      ("--seed", Arg.Set_int seed, "S");
      ("--ops", Arg.Set_int ops, "N");
      ("--rate", Arg.Set_float rate, "R");
      ("--dir", Arg.Set_string dir, "DIR");
      ("--out", Arg.Set_string out, "TRACE");
    ]
    (fun a -> raise (Arg.Bad a))
    "inproc.exe --workload W --seed S --ops N --rate R --dir DIR --out TRACE";
  let seed = !seed and ops = !ops and dir = !dir in
  let pg = sut_named "postgres" in
  let journal i = Filename.concat dir (Printf.sprintf "op%d.jsonl" i) in
  (* The repair input: the paper faultload at its default seed, whose
     repair outcome (150 repaired, 18 already clean) the tests lock. *)
  let pg42 = Filename.concat dir "pg42.jsonl" in
  let record_pg42 () = campaign ~sut:pg ~seed:42 ~jobs:1 ~journal:pg42 in
  (* Every workload's repair layers: one repair of the seed-42 journal,
     recorded untraced so that its campaign does not count as the
     workload's.  It counts as an operation, outside the timed ones. *)
  let repair_once () =
    incr attempted;
    tracing := false;
    match
      ignore (record_pg42 ());
      tracing := true;
      repair ~sut:pg ~journal:pg42 ~seed:42
    with
    | () -> ()
    | exception e ->
      tracing := true;
      Printf.eprintf "inproc: repair failed: %s\n%!" (Printexc.to_string e);
      incr failed
  in
  let (plain, traced), (retained, admit_self, _) =
    match !workload with
    | "profile-apache" ->
      let sut = sut_named "apache" and jobs = 1 in
      let last = ref None in
      let times =
        replay ~ops
          ~after:(fun i ->
            Option.iter
              (campaign_layers ~dir ~sut ~seed:(seed + i) ~journal:(journal i))
              !last)
          (fun i ->
            last := Some (campaign ~sut ~seed:(seed + i) ~jobs ~journal:(journal i)))
      in
      let daemon =
        daemon_layers ~dir ~suts:(fun _ -> "apache") ~seed ~n:3 ~rate:0. ~op_base:1000
      in
      repair_once ();
      (times, daemon)
    | "serve-open" ->
      let run () =
        daemon_layers ~dir ~suts:(serve_sut ~seed) ~seed ~n:ops ~rate:!rate ~op_base:1
      in
      tracing := false;
      let _, _, plain = run () in
      tracing := true;
      let ((_, _, traced) as daemon) = run () in
      Array.iteri
        (fun i name ->
          let sut = sut_named name in
          let got = campaign ~sut ~seed:(seed + i) ~jobs:2 ~journal:(journal i) in
          campaign_layers ~dir ~sut ~seed:(seed + i) ~journal:(journal i) got)
        serve_mix;
      repair_once ();
      ((plain, traced), daemon)
    | w -> failwith ("unknown workload " ^ w)
  in
  write_trace !out;
  let ms = ( *. ) 1000. in
  let busy =
    total "scenario.apply" +. total "engine.serialize" +. total "sandbox.boot"
  in
  let scenarios = float_of_int (max 1 (count "scenario.apply")) in
  let validations = float_of_int !validations in
  let p50 xs = percentile 0.5 xs in
  let metrics =
    [
      ("campaign.generate_ms", median_ms "campaign.generate");
      ( "campaign.generate_us_per_scenario",
        1e6 *. total "campaign.generate" /. float_of_int (max 1 !generated) );
      ("engine.parse_ms", median_ms "engine.parse");
      ("scenario.apply_us", mean_us "scenario.apply");
      ("engine.serialize_us", mean_us "engine.serialize");
      ("sandbox.boot_us", mean_us "sandbox.boot");
      ("sandbox.overhead_ratio", total "sandbox.boot" /. total "engine.boot");
      ("executor.run_ms", median_ms "executor.run");
      ( "executor.self_us_per_scenario",
        1e6 *. (total "pool.run_j1" -. busy) /. scenarios );
      ("pool.speedup_j2", total "pool.run_j1" /. total "pool.run_j2");
      ("pool.efficiency", busy /. (2. *. total "pool.run_j2"));
      ("journal.append_us", mean_us "journal.append");
      ("journal.checkpoint_ms", median_ms "journal.checkpoint");
      ("journal.load_ms", median_ms "journal.load");
      ("faultload.regen_ms", median_ms "faultload.regen");
      ("http.parse_us", mean_us "http.parse");
      ("daemon.admit_ms", median_ms "daemon.admit");
      ("daemon.admit_self_ms", ms (p50 admit_self));
      ("scheduler.queue_wait_ms_p50", median_ms "scheduler.queue_wait");
      ( "scheduler.queue_wait_ms_p90",
        ms (percentile 0.9 (List.map dur (named "scheduler.queue_wait"))) );
      ("daemon.execute_ms_p50", median_ms "daemon.execute");
      ("daemon.campaigns_retained", float_of_int retained);
      ("repair.run_ms", median_ms "repair.run");
      ("checker.lint_us_per_target", mean_us "checker.lint");
      ( "generate.candidates_ms_per_target",
        ms (total "generate.candidates") /. float_of_int (max 1 (count "generate.candidates")) );
      ("cluster.us_per_target", mean_us "cluster");
      ("validate.us_per_candidate", mean_us "validate");
      ("validate.calls", validations /. float_of_int (max 1 !repair_runs));
      ( "repair.candidates_per_target",
        validations /. float_of_int (max 1 (count "generate.candidates")) );
      ( "validate.accepted_ratio",
        float_of_int !repaired_total /. Float.max 1. validations );
      ("ops.attempted", float_of_int !attempted);
      ("ops.failed", float_of_int !failed);
      ("trace.residual_share", residual_share ());
      ("trace.overhead_share", (p50 traced /. p50 plain) -. 1.);
      ("inproc.op_ms_p50", ms (p50 plain));
    ]
  in
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%S: %s" k
               (if Float.is_finite v then Printf.sprintf "%.17g" v else "null"))
           metrics)
    ^ "}")
