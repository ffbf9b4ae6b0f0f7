(* Admission only, at region scale: no flows, no inference.  From a warm
   fill to steady occupancy, every epoch releases the tenants whose
   lifetime ended and places a Poisson batch of arrivals through
   [Shard.place_batch]. *)

open Common
module Tree = Cm_topology.Tree

(* Target slot occupancy of the warm fill, and the domain count of the
   batched placement: one, like every workload, so that the run's CPU
   time is its latency and two domains do not contend for the host's
   two cores. *)
let load = 2.0
let domains = 1

type cfg = {
  spec : Tree.spec;
  dwell : float;  (** Mean tenant lifetime, in epochs. *)
  epochs : int;
}

let default =
  {
    spec = { Tree.default_spec with degrees = [ 4; 8; 16; 16 ]; oversub = [ 4.; 8.; 4. ] };
    dwell = 100.;
    epochs = 200;
  }

let tiny =
  { spec = { default.spec with degrees = [ 2; 2; 4; 8 ] }; dwell = 10.; epochs = 12 }

type state = {
  placer : Placer.t;
  live : (int, unit) Hashtbl.t;  (** Granted handles still placed. *)
  leaving : (int, int list) Hashtbl.t;  (** Epoch -> handles. *)
}

let depart_at st h e =
  Hashtbl.replace st.live h ();
  Hashtbl.replace st.leaving e (h :: Option.value ~default:[] (Hashtbl.find_opt st.leaving e))

let setup cfg ~seed =
  let pool = pool () in
  let placer = Placer.create ~domains cfg.spec in
  let tree = Placer.tree placer in
  let fixture = Rng.create fixture_seed and rng = Rng.create seed in
  let st = { placer; live = Hashtbl.create 65536; leaving = Hashtbl.create 1024 } in
  let target =
    int_of_float (load *. float_of_int (Tree.total_slots tree) /. Pool.mean_size pool)
  in
  let fill_deck = deck fixture pool in
  let rec fill () =
    if Hashtbl.length st.live < target then begin
      let tags = Array.init 256 (fun _ -> draw fill_deck) in
      let granted = ref 0 in
      Array.iter
        (function
          | Placer.Granted h ->
              incr granted;
              depart_at st h (lifetime fixture ~mean:cfg.dwell)
          | Placer.Refused _ -> ())
        (Placer.place_batch placer tags);
      if 2 * !granted >= Array.length tags then fill ()
    end
  in
  fill ();
  (st, rng, deck (Rng.split rng) pool, float_of_int target /. cfg.dwell)

let episode cfg ~seed ~traced ~check =
  let setup_s, (st, rng, arrivals, lambda) = timed (fun () -> setup cfg ~seed) in
  Placer.mark st.placer;
  let sp = Spans.create ~enabled:traced in
  let span name f = Spans.span sp name f in
  let latencies = ref [] and decisions = ref 0 and refused = ref 0 in
  let offered_bw = ref 0. and refused_bw = ref 0. and gen_s = ref 0. in
  let epoch_s =
    Array.init cfg.epochs (fun i ->
        let e = i + 1 in
        let g, (tags, lifetimes) =
          timed (fun () ->
              let k = poisson rng ~mean:lambda in
              let tags = Array.init k (fun _ -> draw arrivals) in
              (tags, Array.init k (fun _ -> lifetime rng ~mean:cfg.dwell)))
        in
        gen_s := !gen_s +. g;
        let t0 = now () in
        span "loop.epoch" (fun () ->
            List.iter
              (fun h ->
                span "shard.release" (fun () -> Placer.release st.placer h);
                Hashtbl.remove st.live h)
              (Option.value ~default:[] (Hashtbl.find_opt st.leaving e));
            Hashtbl.remove st.leaving e;
            if Array.length tags > 0 then begin
              let outs = span "shard.place_batch" (fun () -> Placer.place_batch st.placer tags) in
              let decided = now () -. t0 in
              Array.iteri
                (fun i o ->
                  let bw = Tag.aggregate_bandwidth tags.(i) in
                  latencies := decided :: !latencies;
                  incr decisions;
                  offered_bw := !offered_bw +. bw;
                  match o with
                  | Placer.Granted h -> depart_at st h (e + lifetimes.(i))
                  | Placer.Refused _ ->
                      incr refused;
                      refused_bw := !refused_bw +. bw)
                outs
            end);
        let d = now () -. t0 in
        Reference.tick ();
        d)
  in
  let digest = Digest.to_hex (Digest.string (Placer.transcript st.placer)) in
  let replay = if traced then Some (Placer.replay ~domains:1 st.placer) else None in
  let layers =
    match replay with
    | Some r ->
        Placer.layers st.placer sp r ~batched:!decisions
        @ [ metric "gen.ms_per_epoch" "ms" (ms (per cfg.epochs !gen_s)) ]
    | None -> []
  in
  let checks =
    Placer.replay_checks replay
    @
    if not check then []
    else
      let live = Hashtbl.fold (fun h () acc -> h :: acc) st.live [] in
      [ ("placement.release_all_pristine", Placer.pristine st.placer ~live) ]
  in
  {
    setup_s;
    epoch_s;
    admit_s = Array.of_list !latencies;
    episode_s = Array.fold_left ( +. ) 0. epoch_s;
    decisions = !decisions;
    refused = !refused;
    offered_bw = !offered_bw;
    refused_bw = !refused_bw;
    digest;
    checks;
    layers;
    spans = sp;
  }
