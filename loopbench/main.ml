(* Entry point of the closed-loop benchmark.

     main.exe --workload loop|region-admit|fig8 --seed N --seconds S
              --trace 0|1 [--trace-out FILE]

   Exits 0 when every output check passed, 1 when one failed (the JSON
   result is still printed, with "correct": false), 2 on bad arguments. *)

open Loopbench

let usage () =
  prerr_endline
    "usage: main.exe --workload loop|region-admit|fig8 --seed N --seconds S --trace 0|1 \
     [--trace-out FILE]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let trace_out = ref None in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_arg v); parse rest
    | "--seconds" :: v :: rest -> seconds := Some (int_arg v); parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--trace-out" :: v :: rest -> trace_out := Some v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace when seconds > 0 -> (
      match Report.find_workload ~tiny:false name with
      | None -> usage ()
      | Some w ->
          let r = Report.run ~seconds:(float_of_int seconds) ~seed w ~trace in
          Report.print ?trace_out:!trace_out w r;
          exit (if r.Report.correct then 0 else 1))
  | _ -> usage ()
