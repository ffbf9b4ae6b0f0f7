module Csr = Cm_util.Csr
module Louvain = Cm_inference.Louvain

let to_csr m =
  let n = Array.length m in
  let cells row =
    if Array.length row <> n then invalid_arg "Dense.to_csr: not square";
    List.filter
      (fun (_, v) -> v > 0.)
      (List.mapi (fun j v -> (j, v)) (Array.to_list row))
  in
  Csr.of_row_lists ~n (Array.map cells m)

let of_csr (t : Csr.t) =
  let m = Array.make_matrix t.n t.n 0. in
  Csr.iter_nz t (fun i j v -> m.(i).(j) <- v);
  m

let mean_matrix tm = of_csr (Cm_inference.Traffic_matrix.mean_csr tm)

let feature_vectors m =
  let n = Array.length m in
  Array.init n (fun i ->
      Array.init (2 * n) (fun k -> if k < n then m.(i).(k) else m.(k - n).(i)))

let cosine a b =
  let n = Array.length a in
  let dot = ref 0. and na = ref 0. and nb = ref 0. in
  for i = 0 to n - 1 do
    dot := !dot +. (a.(i) *. b.(i));
    na := !na +. (a.(i) *. a.(i));
    nb := !nb +. (b.(i) *. b.(i))
  done;
  if !na = 0. || !nb = 0. then 0.
  else Float.max 0. (Float.min 1. (!dot /. sqrt (!na *. !nb)))

let angular_similarity a b =
  1. -. (2. *. acos (cosine a b) /. Float.pi)

let projection_graph m =
  let features = feature_vectors m in
  let n = Array.length m in
  let g = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let s = angular_similarity features.(i) features.(j) in
      let s = Float.max 0. s in
      g.(i).(j) <- s;
      g.(j).(i) <- s
    done
  done;
  g

let modularity ?(resolution = 1.) adj labels =
  let n = Array.length adj in
  let k = Array.map (fun row -> Array.fold_left ( +. ) 0. row) adj in
  let m2 = Array.fold_left ( +. ) 0. k in
  if m2 = 0. then 0.
  else begin
    let q = ref 0. in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if labels.(i) = labels.(j) then
          q := !q +. adj.(i).(j) -. (resolution *. k.(i) *. k.(j) /. m2)
      done
    done;
    !q /. m2
  end

let aggregate adj labels =
  let n_comm = 1 + Array.fold_left max 0 labels in
  let small = Array.make_matrix n_comm n_comm 0. in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j w ->
          if w > 0. then
            small.(labels.(i)).(labels.(j)) <-
              small.(labels.(i)).(labels.(j)) +. w)
        row)
    adj;
  small

let cluster ?(resolution = 1.) adj =
  let n = Array.length adj in
  let assignment = Array.init n Fun.id in
  let rec loop adj =
    let labels, improved = Louvain.one_level_csr ~resolution (to_csr adj) in
    if improved then begin
      for i = 0 to n - 1 do
        assignment.(i) <- labels.(assignment.(i))
      done;
      let n_comm = 1 + Array.fold_left max 0 labels in
      if n_comm < Array.length adj then loop (aggregate adj labels)
    end
  in
  loop adj;
  Louvain.renumber assignment
