let check_inside tag inside =
  let n = Tag.n_components tag in
  if Array.length inside <> n then
    invalid_arg "Bandwidth: inside vector length mismatch";
  for c = 0 to n - 1 do
    let k = inside.(c) in
    if k < 0 || k > Tag.size tag c then
      invalid_arg
        (Printf.sprintf "Bandwidth: inside.(%d)=%d out of [0,%d]" c k
           (Tag.size tag c))
  done

let fi = float_of_int
let outside tag inside c = Tag.size tag c - inside.(c)

let internal tag (e : Tag.edge) =
  (not (Tag.is_external tag e.src)) && not (Tag.is_external tag e.dst)

(* Eq. 1 contribution of one internal edge in the out direction. *)
let edge_out tag inside (e : Tag.edge) =
  Float.min
    (fi inside.(e.src) *. e.snd_bw)
    (fi (outside tag inside e.dst) *. e.rcv_bw)

let edge_in tag inside (e : Tag.edge) =
  Float.min
    (fi (outside tag inside e.src) *. e.snd_bw)
    (fi inside.(e.dst) *. e.rcv_bw)

let sum_edges f tag inside ~self =
  Array.fold_left
    (fun acc (e : Tag.edge) ->
      if internal tag e && (e.src = e.dst) = self then
        acc +. f tag inside e
      else acc)
    0. (Tag.edges tag)

(* External (special) components are outside every subtree, so their
   guarantees cross the uplink exactly: [inside * S] outward for an edge
   toward an external, [inside * R] inward for an edge from one.  All
   four abstractions account them identically. *)
let external_out tag inside =
  Array.fold_left
    (fun acc (e : Tag.edge) ->
      if (not (Tag.is_external tag e.src)) && Tag.is_external tag e.dst then
        acc +. (fi inside.(e.src) *. e.snd_bw)
      else acc)
    0. (Tag.edges tag)

let external_in tag inside =
  Array.fold_left
    (fun acc (e : Tag.edge) ->
      if Tag.is_external tag e.src && not (Tag.is_external tag e.dst) then
        acc +. (fi inside.(e.dst) *. e.rcv_bw)
      else acc)
    0. (Tag.edges tag)

let tag_trunk_out tag ~inside =
  check_inside tag inside;
  sum_edges edge_out tag inside ~self:false

let tag_hose_out tag ~inside =
  check_inside tag inside;
  sum_edges edge_out tag inside ~self:true

let tag_out tag ~inside =
  check_inside tag inside;
  sum_edges edge_out tag inside ~self:false
  +. sum_edges edge_out tag inside ~self:true
  +. external_out tag inside

let tag_in tag ~inside =
  check_inside tag inside;
  sum_edges edge_in tag inside ~self:false
  +. sum_edges edge_in tag inside ~self:true
  +. external_in tag inside

(* Per-VM guarantee sums over internal edges only; external edges are
   priced separately and identically under all models. *)
let internal_per_vm_send tag c =
  List.fold_left
    (fun acc (e : Tag.edge) ->
      if internal tag e then acc +. e.snd_bw else acc)
    0. (Tag.out_edges tag c)

let internal_per_vm_recv tag c =
  List.fold_left
    (fun acc (e : Tag.edge) ->
      if internal tag e then acc +. e.rcv_bw else acc)
    0. (Tag.in_edges tag c)

(* Generalized hose: every VM's guarantees fused into one hose rate. *)
let hose_out tag ~inside =
  check_inside tag inside;
  let send = ref 0. and recv = ref 0. in
  for c = 0 to Tag.n_components tag - 1 do
    send := !send +. (fi inside.(c) *. internal_per_vm_send tag c);
    recv := !recv +. (fi (outside tag inside c) *. internal_per_vm_recv tag c)
  done;
  Float.min !send !recv +. external_out tag inside

let hose_in tag ~inside =
  check_inside tag inside;
  let send = ref 0. and recv = ref 0. in
  for c = 0 to Tag.n_components tag - 1 do
    send := !send +. (fi (outside tag inside c) *. internal_per_vm_send tag c);
    recv := !recv +. (fi inside.(c) *. internal_per_vm_recv tag c)
  done;
  Float.min !send !recv +. external_in tag inside

(* VOC (footnote 7): inter-cluster guarantees aggregated into one
   oversubscribed hose; intra-cluster self-loops kept as hoses. *)
let inter_per_vm_send tag c =
  List.fold_left
    (fun acc (e : Tag.edge) ->
      if internal tag e && e.src <> e.dst then acc +. e.snd_bw else acc)
    0. (Tag.out_edges tag c)

let inter_per_vm_recv tag c =
  List.fold_left
    (fun acc (e : Tag.edge) ->
      if internal tag e && e.src <> e.dst then acc +. e.rcv_bw else acc)
    0. (Tag.in_edges tag c)

let voc_out tag ~inside =
  check_inside tag inside;
  let send = ref 0. and recv = ref 0. in
  for c = 0 to Tag.n_components tag - 1 do
    send := !send +. (fi inside.(c) *. inter_per_vm_send tag c);
    recv := !recv +. (fi (outside tag inside c) *. inter_per_vm_recv tag c)
  done;
  Float.min !send !recv
  +. sum_edges edge_out tag inside ~self:true
  +. external_out tag inside

let voc_in tag ~inside =
  check_inside tag inside;
  let send = ref 0. and recv = ref 0. in
  for c = 0 to Tag.n_components tag - 1 do
    send := !send +. (fi (outside tag inside c) *. inter_per_vm_send tag c);
    recv := !recv +. (fi inside.(c) *. inter_per_vm_recv tag c)
  done;
  Float.min !send !recv
  +. sum_edges edge_in tag inside ~self:true
  +. external_in tag inside

(* Idealized pipes: guarantees split uniformly across VM pairs, so the
   crossing bandwidth depends only on how many VMs sit on each side.
   External edges become per-VM pipes to the external endpoint. *)
let pipe_cross tag inside ~src_side =
  Array.fold_left
    (fun acc (e : Tag.edge) ->
      if not (internal tag e) then
        acc
        +.
        (if src_side then
           if Tag.is_external tag e.dst then fi inside.(e.src) *. e.snd_bw
           else 0.
         else if Tag.is_external tag e.src then fi inside.(e.dst) *. e.rcv_bw
         else 0.)
      else
      let n_src = Tag.size tag e.src and n_dst = Tag.size tag e.dst in
      if e.src = e.dst then
        if n_src <= 1 then acc
        else
          let pair = e.snd_bw /. fi (n_src - 1) in
          let ins = inside.(e.src) and out = outside tag inside e.src in
          acc +. (fi ins *. fi out *. pair)
      else
        let pair = Tag.b_total tag e /. (fi n_src *. fi n_dst) in
        let src_count, dst_count =
          if src_side then (inside.(e.src), outside tag inside e.dst)
          else (outside tag inside e.src, inside.(e.dst))
        in
        acc +. (fi src_count *. fi dst_count *. pair))
    0. (Tag.edges tag)

let pipe_out tag ~inside =
  check_inside tag inside;
  pipe_cross tag inside ~src_side:true

let pipe_in tag ~inside =
  check_inside tag inside;
  pipe_cross tag inside ~src_side:false

let hose_saving_possible ~n_total ~n_inside = 2 * n_inside > n_total

let trunk_size_condition tag (e : Tag.edge) ~src_inside ~dst_inside =
  2 * src_inside > Tag.size tag e.src || 2 * dst_inside > Tag.size tag e.dst

let trunk_saving_condition tag (e : Tag.edge) ~src_inside ~dst_inside =
  (fi src_inside *. e.snd_bw) +. (fi dst_inside *. e.rcv_bw)
  > fi (Tag.size tag e.dst) *. e.rcv_bw

let trunk_saving_amount tag (e : Tag.edge) ~src_inside ~dst_inside =
  let n_dst = Tag.size tag e.dst in
  Float.max
    ((fi src_inside *. e.snd_bw) -. (fi (n_dst - dst_inside) *. e.rcv_bw))
    0.

type model = Tag_model | Hose_model | Voc_model | Pipe_model

(* {2 The pricing kernel}

   [required] prices an uplink on every server allocation and every path
   sync of the placement hot path, so its TAG and VOC cases are written
   as straight loops over the edge and component arrays: no closures, no
   list folds, and no calls to float-returning helpers.  Without flambda
   a float function that is not inlined, such as [edge_out], boxes its
   result, and across modules its arguments too; [Float.min] itself is
   inlined from the stdlib.  Externals are recognised by index (at or
   past [n_components], as in [Tag.is_external]) rather than by a call
   per edge.  Each case keeps one accumulator per term of the
   per-direction formulas above and adds into it in the same order,
   with the same association, so the pair is bit-identical to
   [(tag_out, tag_in)] and [(voc_out, voc_in)]. *)

let tag_required tag ~inside =
  check_inside tag inside;
  let nc = Tag.n_components tag in
  let trunk_out = ref 0.
  and hose_out = ref 0.
  and ext_out = ref 0.
  and trunk_in = ref 0.
  and hose_in = ref 0.
  and ext_in = ref 0. in
  let edges = Tag.edges tag in
  for i = 0 to Array.length edges - 1 do
    let e = edges.(i) in
    let sx = e.src >= nc and dx = e.dst >= nc in
    if (not sx) && not dx then begin
      let src_in = inside.(e.src) and dst_in = inside.(e.dst) in
      let src_out = Tag.size tag e.src - src_in
      and dst_out = Tag.size tag e.dst - dst_in in
      let out = Float.min (fi src_in *. e.snd_bw) (fi dst_out *. e.rcv_bw)
      and into =
        Float.min (fi src_out *. e.snd_bw) (fi dst_in *. e.rcv_bw)
      in
      if e.src = e.dst then begin
        hose_out := !hose_out +. out;
        hose_in := !hose_in +. into
      end
      else begin
        trunk_out := !trunk_out +. out;
        trunk_in := !trunk_in +. into
      end
    end
    else if not sx then ext_out := !ext_out +. (fi inside.(e.src) *. e.snd_bw)
    else if not dx then ext_in := !ext_in +. (fi inside.(e.dst) *. e.rcv_bw)
  done;
  ( !trunk_out +. !hose_out +. !ext_out,
    !trunk_in +. !hose_in +. !ext_in )

(* One walk over the edges builds the per-VM inter-cluster guarantees
   of every component ([per_vm.(c)] send, [per_vm.(nc + c)] receive) in
   edge-array order, which is the order of [Tag.out_edges] and
   [Tag.in_edges], and sums the self-loop hoses and external edges on
   the way; one walk over the components then weighs them by the inside
   and outside counts. *)
let voc_required tag ~inside =
  check_inside tag inside;
  let nc = Tag.n_components tag in
  let per_vm = Array.make (2 * nc) 0. in
  let hose_out = ref 0.
  and ext_out = ref 0.
  and hose_in = ref 0.
  and ext_in = ref 0. in
  let edges = Tag.edges tag in
  for i = 0 to Array.length edges - 1 do
    let e = edges.(i) in
    let sx = e.src >= nc and dx = e.dst >= nc in
    if (not sx) && not dx then
      if e.src = e.dst then begin
        let ins = inside.(e.src) in
        let outs = Tag.size tag e.src - ins in
        hose_out :=
          !hose_out +. Float.min (fi ins *. e.snd_bw) (fi outs *. e.rcv_bw);
        hose_in :=
          !hose_in +. Float.min (fi outs *. e.snd_bw) (fi ins *. e.rcv_bw)
      end
      else begin
        per_vm.(e.src) <- per_vm.(e.src) +. e.snd_bw;
        per_vm.(nc + e.dst) <- per_vm.(nc + e.dst) +. e.rcv_bw
      end
    else if not sx then ext_out := !ext_out +. (fi inside.(e.src) *. e.snd_bw)
    else if not dx then ext_in := !ext_in +. (fi inside.(e.dst) *. e.rcv_bw)
  done;
  let send_out = ref 0.
  and recv_out = ref 0.
  and send_in = ref 0.
  and recv_in = ref 0. in
  for c = 0 to nc - 1 do
    let ins = fi inside.(c) and outs = fi (Tag.size tag c - inside.(c)) in
    let send = per_vm.(c) and recv = per_vm.(nc + c) in
    send_out := !send_out +. (ins *. send);
    recv_out := !recv_out +. (outs *. recv);
    send_in := !send_in +. (outs *. send);
    recv_in := !recv_in +. (ins *. recv)
  done;
  ( Float.min !send_out !recv_out +. !hose_out +. !ext_out,
    Float.min !send_in !recv_in +. !hose_in +. !ext_in )

let required model tag ~inside =
  match model with
  | Tag_model -> tag_required tag ~inside
  | Hose_model -> (hose_out tag ~inside, hose_in tag ~inside)
  | Voc_model -> voc_required tag ~inside
  | Pipe_model -> (pipe_out tag ~inside, pipe_in tag ~inside)

let model_name = function
  | Tag_model -> "TAG"
  | Hose_model -> "hose"
  | Voc_model -> "VOC"
  | Pipe_model -> "pipe"
