(* A fixed amount of allocation-heavy work in a fresh process: hashing,
   sorting and string building, about 32 ms on a quiet 2-vCPU host.

   perfbench/run.py times this process next to the program's own CLI
   processes.  On a shared host the cost of a fresh process moves by up
   to 1.8x between phases of a few seconds to many minutes, and this
   process moves with the CLI processes (see perfbench/README.md, Host
   speed), so their ratio shows the program's cost rather than the
   host's phase.

   Usage: hostref.exe ROUNDS *)

let () =
  let rounds = int_of_string Sys.argv.(1) in
  let st = Random.State.make [| 42 |] in
  let acc = ref 0 in
  for _ = 1 to rounds do
    let h = Hashtbl.create 1024 in
    for i = 0 to 4999 do
      let k = Printf.sprintf "key-%d-%d" i (Random.State.int st 1000) in
      Hashtbl.replace h k (String.length k)
    done;
    let l = List.sort compare (List.init 5000 (fun _ -> Random.State.int st 100_000)) in
    let b = Buffer.create 256 in
    List.iter (fun x -> if x land 7 = 0 then Buffer.add_string b (string_of_int x)) l;
    acc := !acc + Hashtbl.length h + Buffer.length b
  done;
  (* keeps the work observable *)
  if !acc = 0 then exit 1
