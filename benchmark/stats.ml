(** Sample statistics: medians and quartiles as Python's [statistics]
    module computes them (so [--compare] agrees with any script reading
    the same result lines), and the tail-percentile rule. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** [statistics.median]: the middle value, or the mean of the two
    middle values; [nan] for an empty sample. *)
let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** [statistics.quantiles(xs, n=4)] with its default "exclusive"
    method: (q1, q2, q3). *)
let quartiles (xs : float list) : float * float * float =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let minimum (xs : float list) : float = List.fold_left Float.min infinity xs

let maximum (xs : float list) : float = List.fold_left Float.max neg_infinity xs

(** Interquartile distance as a share of the median. *)
let spread (xs : float list) : float =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. median xs

(* 1-based nearest rank of per-mille percentile [pm] in [n] samples *)
let rank ~n pm = ((pm * n) + 999) / 1000

(** Nearest-rank percentile, [pm] in per mille (990 = p99). *)
let percentile (xs : float list) (pm : int) : float =
  let a = sorted xs in
  if Array.length a = 0 then nan
  else a.(max 0 (rank ~n:(Array.length a) pm - 1))

(** The tail rule: the highest of p99.9, p99, p95, p90 and p50 that has
    at least ten samples beyond it.  p99 therefore needs 1,000 samples;
    [None] below 20. *)
let tail_pm (n : int) : int option =
  List.find_opt (fun pm -> n - rank ~n pm >= 10) [ 999; 990; 950; 900; 500 ]

let pm_label (pm : int) : string =
  if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10)
  else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)

(** [num / den], 0 when nothing was attempted. *)
let ratio (num : int) (den : int) : float =
  if den = 0 then 0. else float_of_int num /. float_of_int den
