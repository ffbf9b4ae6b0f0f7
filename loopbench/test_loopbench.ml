(* The benchmark's own tests: the percentile rule, the host-speed
   scaling, and a tiny run of every workload with all output checks
   green. *)

open Loopbench

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let test_tail_percentile () =
  let q n = (Pct.tail ~target:90 (samples n)).Pct.q in
  Alcotest.(check int) "100 samples reach p90" 90 (q 100);
  Alcotest.(check int) "1000 samples stop at the target" 90 (q 1000);
  Alcotest.(check int) "50 samples: p80 leaves 10 beyond" 80 (q 50);
  Alcotest.(check int) "45 samples: p77" 77 (q 45);
  Alcotest.(check int) "too few samples fall back to the median" 50 (q 5);
  let t = Pct.tail ~target:90 (samples 50) in
  Alcotest.(check int) "sample count reported" 50 t.Pct.n;
  Alcotest.(check (float 1e-9)) "value is that percentile"
    (Cm_util.Stats.percentile (samples 50) 80.)
    t.Pct.value;
  let beyond = Array.fold_left (fun n x -> if x > t.Pct.value then n + 1 else n) 0 (samples 50) in
  Alcotest.(check bool) "at least 10 samples beyond" true (beyond >= Pct.min_beyond)

let test_scaling () =
  let scaled u v = (Report.at_nominal 2. (Common.metric "m" u v)).Common.value in
  Alcotest.(check (float 1e-12)) "seconds scale" 6. (scaled "s" 3.);
  Alcotest.(check (float 1e-12)) "milliseconds scale" 6. (scaled "ms" 3.);
  Alcotest.(check (float 1e-12)) "microseconds scale" 6. (scaled "us" 3.);
  Alcotest.(check (float 1e-12)) "rates scale inversely" 1.5 (scaled "1/s" 3.);
  Alcotest.(check (float 1e-12)) "ratios stay" 3. (scaled "ratio" 3.);
  Alcotest.(check (float 1e-12)) "percentages stay" 3. (scaled "%" 3.);
  Alcotest.(check (float 1e-12)) "counts stay" 3. (scaled "count" 3.);
  Reference.reset ();
  for _ = 1 to 5 do
    Reference.sample ()
  done;
  Reference.tick ();
  let k, n = Reference.scale () in
  Alcotest.(check int) "a tick within the period does not sample" 5 n;
  Alcotest.(check bool) "finite positive factor" true (Float.is_finite k && k > 0.)

let tiny name = Option.get (Report.find_workload ~tiny:true name)

let test_workload name () =
  let w = tiny name in
  let r = Report.run ~seconds:0. ~seed:3 w ~trace:false in
  List.iter (fun (c, ok) -> Alcotest.(check bool) c true ok) r.Report.checks;
  Alcotest.(check bool) "correct" true r.Report.correct;
  Alcotest.(check (list string)) "every end-to-end metric"
    (List.map fst Report.end_to_end)
    (List.map (fun m -> m.Common.name) r.Report.metrics);
  let again = w.Report.episode ~seed:5 ~traced:false ~check:false in
  let first = w.Report.episode ~seed:5 ~traced:false ~check:false in
  Alcotest.(check string) "same seed, same digest" first.Common.digest again.Common.digest

let test_traced name () =
  let w = tiny name in
  let r = Report.run ~seconds:0. ~seed:3 w ~trace:true in
  Alcotest.(check bool) "correct" true r.Report.correct;
  Alcotest.(check (list string)) "every per-layer metric"
    (List.map fst Report.per_layer)
    (List.map (fun m -> m.Common.name) r.Report.metrics);
  let t = Option.get r.Report.traced in
  Alcotest.(check bool) "spans recorded" true (t.Common.spans.Spans.n > 0);
  if w.Report.root = "loop.epoch" then
    Alcotest.(check bool) "layer spans cover the epoch" true
      (Spans.unattributed t.Common.spans ~root:w.Report.root <= 0.05)

let test_other_seed () =
  let w = tiny "loop" in
  let e = w.Report.episode ~seed:11 ~traced:false ~check:true in
  List.iter (fun (c, ok) -> Alcotest.(check bool) c true ok) e.Common.checks

let () =
  let names = [ "loop"; "region-admit"; "fig8" ] in
  Alcotest.run "loopbench"
    [
      ("percentile", [ Alcotest.test_case "tail rule" `Quick test_tail_percentile ]);
      ("host speed", [ Alcotest.test_case "scaling" `Quick test_scaling ]);
      ( "tiny run",
        List.map (fun n -> Alcotest.test_case n `Quick (test_workload n)) names
        @ [ Alcotest.test_case "loop, second seed" `Quick test_other_seed ] );
      ("tiny traced run", List.map (fun n -> Alcotest.test_case n `Quick (test_traced n)) names);
    ]
