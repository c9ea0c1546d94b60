module Outcome = Conferr.Outcome
module Engine = Conferr.Engine
module Scenario = Errgen.Scenario
module Span = Conferr_obsv.Span

exception Out_of_fuel of int

(* --------------------------------------------------------------- *)
(* Cooperative fuel                                                  *)
(* --------------------------------------------------------------- *)

(* Fuel cells are keyed by thread id: each sandboxed call runs in one
   thread (either a pool worker's own thread or the executor's timeout
   watchdog thread), and a watchdog thread abandoned by its timeout must
   keep burning its *own* fuel, not the budget of the scenario that
   replaced it. *)
let cells : (int, int ref * int) Hashtbl.t = Hashtbl.create 8

let cells_lock = Mutex.create ()

let with_lock f =
  Mutex.lock cells_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cells_lock) f

let current_cell () =
  let tid = Thread.id (Thread.self ()) in
  with_lock (fun () -> Hashtbl.find_opt cells tid)

let with_fuel fuel f =
  match fuel with
  | None -> f ()
  | Some budget ->
    let tid = Thread.id (Thread.self ()) in
    with_lock (fun () -> Hashtbl.replace cells tid (ref budget, budget));
    Fun.protect
      ~finally:(fun () -> with_lock (fun () -> Hashtbl.remove cells tid))
      f

let tick ?(cost = 1) () =
  match current_cell () with
  | None -> ()
  | Some (remaining, budget) ->
    remaining := !remaining - cost;
    if !remaining < 0 then raise (Out_of_fuel budget)

let fuel_left () =
  match current_cell () with
  | None -> None
  | Some (remaining, _) -> Some (max 0 !remaining)

(* --------------------------------------------------------------- *)
(* Exception containment                                             *)
(* --------------------------------------------------------------- *)

let crashed ~phase cause =
  Outcome.Crashed { cause; phase; backtrace = Printexc.get_backtrace () }

let classify_exn ~phase = function
  | Stack_overflow -> crashed ~phase Outcome.Stack_overflow_crash
  | Out_of_memory -> crashed ~phase Outcome.Out_of_memory_crash
  | Out_of_fuel budget -> crashed ~phase (Outcome.Fuel_exhausted budget)
  | exn -> crashed ~phase (Outcome.Uncaught (Printexc.to_string exn))

(* The probe marks the pipeline phases for the observability layer
   (doc/obsv.md); [Span.null] makes every wrap a plain call, so the
   untraced path is unchanged. *)
let boot_and_test ?fuel ?(probe = Span.null) (sut : Suts.Sut.t) files =
  (* Crash records carry a backtrace.  The switch is per domain, so it
     is thrown on the domain that runs this call, every call: a domain
     spawned after another one switched it on starts with it off. *)
  Printexc.record_backtrace true;
  with_fuel fuel (fun () ->
      match probe.Span.wrap Span.Spawn (fun () -> sut.Suts.Sut.boot files) with
      | exception exn -> classify_exn ~phase:Outcome.Boot exn
      | Error msg -> Outcome.Startup_failure msg
      | Ok instance ->
        (match
           probe.Span.wrap Span.Run (fun () ->
               let results = instance.Suts.Sut.run_tests () in
               (try instance.Suts.Sut.shutdown () with _ -> ());
               results)
         with
         | exception exn -> classify_exn ~phase:Outcome.Test exn
         | results ->
           probe.Span.wrap Span.Classify (fun () ->
               let failures =
                 List.filter_map
                   (fun (r : Suts.Sut.test_result) ->
                     if r.passed then None
                     else Some (Printf.sprintf "%s: %s" r.test_name r.detail))
                   results
               in
               if failures = [] then Outcome.Passed
               else Outcome.Test_failure failures)))

(* Mutation application and serialization classify exactly like
   [Engine.run_scenario], so sandboxed and classic campaigns agree on
   every scenario whose SUT behaves; only the boot/test tail differs. *)
let materialize ?(probe = Span.null) ~sut ~base (s : Scenario.t) =
  match probe.Span.wrap Span.Generate (fun () -> s.Scenario.apply base) with
  | exception exn ->
    Error (Printf.sprintf "scenario raised: %s" (Printexc.to_string exn))
  | Error msg -> Error msg
  | Ok mutated ->
    probe.Span.wrap Span.Serialize (fun () -> Engine.serialize_config sut mutated)

let run_scenario ?fuel ?probe ~sut ~base (s : Scenario.t) =
  match materialize ?probe ~sut ~base s with
  | Error msg -> Outcome.Not_applicable msg
  | Ok files -> boot_and_test ?fuel ?probe sut files
