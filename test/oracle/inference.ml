module Csr = Cm_util.Csr
module Tm = Cm_inference.Traffic_matrix
module Similarity = Cm_inference.Similarity
module Louvain = Cm_inference.Louvain
module Infer = Cm_inference.Infer
module Ami = Cm_inference.Ami
module Stream = Cm_inference.Stream

let ami_parity = 0.8

type observation = {
  epochs : Csr.t array;
  mean : Csr.t;
  projection : Csr.t;
  labels : int array;
  sizes : int array;
  peaks : float array;
  exact : bool;
}

let observe s (st : Stream.stats) =
  let sizes, peaks = Stream.peaks s in
  {
    epochs = Stream.window_epochs s;
    mean = Stream.mean s;
    projection = Stream.projection s;
    labels = Stream.labels s;
    sizes;
    peaks;
    exact = st.full || st.fallback;
  }

let check ?(resolution = 1.) o =
  let fail fmt = Check.fail ~layer:"inference" fmt in
  let mean = Tm.mean_csr (Tm.of_epochs o.epochs) in
  if not (Csr.equal o.mean mean) then fail "windowed mean diverged from batch";
  let graph = Similarity.projection_csr mean in
  if not (Csr.equal o.projection graph) then
    fail "similarity graph diverged from batch";
  let sizes, peaks = Infer.component_peaks o.epochs o.labels in
  if o.sizes <> sizes then fail "component sizes diverged from batch";
  if
    Array.length o.peaks <> Array.length peaks
    || not (Array.for_all2 Check.same_bits o.peaks peaks)
  then fail "guarantee peaks diverged from batch";
  let cold = Louvain.cluster_csr ~resolution graph in
  if o.exact then begin
    if o.labels <> cold then fail "labels differ from cold on a full tick";
    1.
  end
  else begin
    let ami = Ami.ami o.labels cold in
    if ami < ami_parity then
      fail "labels drifted from cold (AMI %.3f < %.2f)" ami ami_parity;
    ami
  end

let check_tick ?resolution s st = check ?resolution (observe s st)
