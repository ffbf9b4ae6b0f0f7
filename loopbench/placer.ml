(* The benchmark's handle on the placement layer: a [Shard.t] over a
   fresh tree, plus a log of every placement operation it was asked to
   do.  Placements are named by handles (the order they were granted
   in), so the log can be replayed against a second tree:

   - at one domain, where [Tree.index_stats] counts exactly and all
     placement allocation happens on the calling domain;
   - as a determinism check, since batched placement must decide the
     same at any domain count.

   Recording costs a cons per operation; nothing is serialised until
   the episode is over. *)

module Tree = Cm_topology.Tree
module Shard = Cm_placement.Shard
module Types = Cm_placement.Types
module Tag = Cm_tag.Tag

type outcome = Granted of int | Refused of Types.reject_reason

type op =
  | Batch of Tag.t array * outcome array
  | Single of Tag.t * outcome
  | Release of int
  | Mark  (** Start of the timed epochs. *)

type t = {
  spec : Tree.spec;
  tree : Tree.t;
  shard : Shard.t;
  domains : int;
  mutable granted : Types.placement array;
  mutable n_granted : int;
  mutable log : op list;
}

let create ~domains spec =
  let tree = Tree.create spec in
  {
    spec;
    tree;
    shard = Shard.create tree;
    domains;
    granted = [||];
    n_granted = 0;
    log = [];
  }

let tree t = t.tree
let placement t h = t.granted.(h)

let grant t p =
  if t.n_granted = Array.length t.granted then begin
    let g = Array.make (max 256 (2 * t.n_granted)) p in
    Array.blit t.granted 0 g 0 t.n_granted;
    t.granted <- g
  end;
  t.granted.(t.n_granted) <- p;
  t.n_granted <- t.n_granted + 1;
  Granted (t.n_granted - 1)

let outcome t = function Ok p -> grant t p | Error r -> Refused r

let place_batch t tags =
  let results =
    Shard.place_batch ~domains:t.domains t.shard
      (List.map (fun tag -> Types.request tag) (Array.to_list tags))
  in
  let outs = Array.of_list (List.map (outcome t) results) in
  t.log <- Batch (tags, outs) :: t.log;
  outs

let place t tag =
  let o = outcome t (Shard.place t.shard (Types.request tag)) in
  t.log <- Single (tag, o) :: t.log;
  o

let release t h =
  Shard.release t.shard t.granted.(h);
  t.log <- Release h :: t.log

let mark t = t.log <- Mark :: t.log
let ops t = List.rev t.log

(* Fold over the decisions made after the mark. *)
let fold_timed t f acc =
  let timed = ref false in
  List.fold_left
    (fun acc op ->
      match op with
      | Mark ->
          timed := true;
          acc
      | Batch (tags, outs) when !timed ->
          let acc = ref acc in
          Array.iteri (fun i o -> acc := f !acc tags.(i) o) outs;
          !acc
      | Single (tag, o) when !timed -> f acc tag o
      | Batch _ | Single _ | Release _ -> acc)
    acc (ops t)

(* Canonical text of every decision: the digest input. *)
let transcript t =
  let b = Buffer.create 65536 in
  let loc h =
    Array.iter
      (fun comp ->
        List.iter (fun (s, n) -> Printf.bprintf b "%d*%d," s n) comp;
        Buffer.add_char b '|')
      t.granted.(h).Types.locations
  in
  let out = function
    | Granted h ->
        Printf.bprintf b "G%d:" h;
        loc h
    | Refused r -> Buffer.add_string b (Types.reject_to_string r)
  in
  List.iter
    (function
      | Batch (_, outs) ->
          Buffer.add_char b 'B';
          Array.iter out outs
      | Single (_, o) ->
          Buffer.add_char b 'S';
          out o
      | Release h -> Printf.bprintf b "R%d" h
      | Mark -> Buffer.add_char b 'M')
    (ops t);
  Buffer.contents b

type replay = {
  same_decisions : bool;
  index_marks : int;  (** Dirty-bit transitions after the mark. *)
  index_cleans : int;  (** Index rows recomputed after the mark. *)
  minor_words : float;  (** Placement allocation after the mark. *)
}

(* Replay the log on a fresh tree at [domains]; index counters and
   allocation are taken from the mark on.  Traced runs only: it costs
   about as much as the placement work it replays. *)
let replay ~domains t =
  let r = create ~domains t.spec in
  let m0 = ref (0, 0) and w0 = ref 0. in
  List.iter
    (function
      | Batch (tags, _) -> ignore (place_batch r tags)
      | Single (tag, _) -> ignore (place r tag)
      | Release h -> release r h
      | Mark ->
          mark r;
          m0 := Tree.index_stats r.tree;
          w0 := Gc.minor_words ())
    (ops t);
  let words = Gc.minor_words () -. !w0 in
  let marks, cleans = Tree.index_stats r.tree in
  {
    same_decisions = transcript r = transcript t;
    index_marks = marks - fst !m0;
    index_cleans = cleans - snd !m0;
    minor_words = words;
  }

let replay_checks = function
  | Some r -> [ ("placement.replay_at_1_domain", r.same_decisions) ]
  | None -> []

(* Release every live handle; then the tree must be as new: index
   consistent, all slots free and no bandwidth reserved.  Reserve and
   release sum the same amounts in different orders, so "no bandwidth"
   is zero within the tree's own capacity tolerance. *)
let pristine t ~live =
  List.iter (fun h -> Shard.release t.shard t.granted.(h)) live;
  let tree = t.tree in
  let zero = ref true in
  for n = 0 to Tree.n_nodes tree - 1 do
    if
      Float.abs (Tree.reserved_up tree n) > Tree.bw_epsilon
      || Float.abs (Tree.reserved_down tree n) > Tree.bw_epsilon
    then zero := false
  done;
  Tree.index_verify tree && !zero
  && Tree.free_slots_subtree tree (Tree.root tree) = Tree.total_slots tree

(* The placement-layer metrics of a traced episode: timings from its
   spans, exact counts from the one-domain replay. *)
let layers t sp (r : replay) ~batched =
  let open Common in
  let d = Spans.durations sp "shard.place_batch" in
  let refusals reason =
    fold_timed t
      (fun n _ o -> match o with Refused x when x = reason -> n + 1 | _ -> n)
      0
  in
  let placed = fold_timed t (fun n _ _ -> n + 1) 0 in
  [
    metric "shard.batch_ms_p50" "ms" (ms (Pct.median d).Pct.value);
    metric "shard.batch_ms_p90" "ms" (ms (Pct.tail ~target:90 d).Pct.value);
    metric "shard.us_per_decision" "us" (us (per batched (Spans.total sp "shard.place_batch")));
    metric "shard.release_us" "us"
      (us (per (Spans.count sp "shard.release") (Spans.total sp "shard.release")));
    metric "shard.minor_words_per_decision" "words" (per placed r.minor_words);
    metric "shard.reject_no_slots" "count" (float_of_int (refusals Types.No_slots));
    metric "shard.reject_no_bw" "count" (float_of_int (refusals Types.No_bandwidth));
    metric "tree.index_cleans_per_decision" "count" (per placed (float_of_int r.index_cleans));
    metric "tree.index_marks_per_decision" "count" (per placed (float_of_int r.index_marks));
  ]
