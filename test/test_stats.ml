(* Tests for Ds_stats. *)

open Ds_stats

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let test_summary () =
  let s = Summary.create () in
  Alcotest.(check int) "empty count" 0 (Summary.count s);
  Alcotest.(check (float 0.)) "empty mean" 0. (Summary.mean s);
  List.iter (Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Summary.count s);
  Alcotest.(check bool) "mean" true (feq (Summary.mean s) 5.);
  (* Sample variance of this classic set is 32/7. *)
  Alcotest.(check bool) "variance" true (feq (Summary.variance s) (32. /. 7.));
  Alcotest.(check (float 0.)) "min" 2. (Summary.min s);
  Alcotest.(check (float 0.)) "max" 9. (Summary.max s);
  Alcotest.(check (float 0.)) "sum" 40. (Summary.sum s)

let summary_merge_prop =
  QCheck2.Test.make ~name:"Summary.merge = concat" ~count:200
    QCheck2.Gen.(pair (list (float_bound_inclusive 100.)) (list (float_bound_inclusive 100.)))
    (fun (xs, ys) ->
      let a = Summary.create () and b = Summary.create () and c = Summary.create () in
      List.iter (Summary.add a) xs;
      List.iter (Summary.add b) ys;
      List.iter (Summary.add c) (xs @ ys);
      let m = Summary.merge a b in
      Summary.count m = Summary.count c
      && feq ~eps:1e-6 (Summary.mean m) (Summary.mean c)
      && feq ~eps:1e-4 (Summary.variance m) (Summary.variance c))

let test_histogram () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.)) "empty quantile" 0. (Histogram.quantile h 0.5);
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i /. 1000.)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let p50 = Histogram.median h in
  Alcotest.(check bool) "median within bucket error" true
    (p50 > 0.4 && p50 < 0.65);
  let p99 = Histogram.p99 h in
  Alcotest.(check bool) "p99 near 0.99" true (p99 > 0.85 && p99 < 1.15);
  Alcotest.(check bool) "mean" true (feq ~eps:1e-6 (Histogram.mean h) 0.5005)

let test_histogram_errors () =
  let h = Histogram.create () in
  let rejects name x =
    Alcotest.check_raises name
      (Invalid_argument "Histogram.add: negative or non-finite") (fun () ->
        Histogram.add h x)
  in
  rejects "negative" (-1.);
  rejects "nan" Float.nan;
  rejects "infinity" Float.infinity;
  rejects "neg infinity" Float.neg_infinity;
  Alcotest.(check int) "nothing recorded" 0 (Histogram.count h);
  Alcotest.check_raises "bad quantile" (Invalid_argument "Histogram.quantile")
    (fun () -> ignore (Histogram.quantile h 1.5))

let histogram_quantile_monotone =
  QCheck2.Test.make ~name:"Histogram quantiles are monotone" ~count:100
    QCheck2.Gen.(list_size (int_range 1 200) (float_bound_inclusive 1000.))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (fun x -> Histogram.add h (Float.abs x)) xs;
      let qs =
        List.map (Histogram.quantile h) [ 0.; 0.1; 0.5; 0.9; 0.99; 1.0 ]
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono qs)

(* The same sample rule as Histogram.quantile: the ceil(q*n)-th smallest
   sample, 1-indexed. *)
let naive_quantile xs q =
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  let target = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  arr.(target - 1)

let histogram_quantile_vs_sorted =
  QCheck2.Test.make
    ~name:"Histogram.quantile within bucket error of sorted reference"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 300) (float_range 1e-3 1e3))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      (* Buckets are geometric with 20/decade, so the midpoint estimate is
         within half a bucket (10^(1/40)) of the true sample; allow a full
         bucket (10^(1/20) ~ 1.122) for boundary rounding. *)
      let tol = Float.pow 10. (1. /. 20.) in
      List.for_all
        (fun q ->
          let est = Histogram.quantile h q in
          let truth = naive_quantile xs q in
          est >= truth /. tol && est <= truth *. tol)
        [ 0.; 0.1; 0.5; 0.9; 0.99; 1.0 ])

(* The two ends of the quantile range pin down the fixed edge-case bugs:
   q = 0. must land in the bucket of the smallest sample (not an empty
   prefix), and q = 1. must land in the bucket holding max_observed. *)
let histogram_quantile_extremes =
  QCheck2.Test.make
    ~name:"Histogram.quantile endpoints bucket-consistent with min/max"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 300) (float_range 1e-3 1e3))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let tol = Float.pow 10. (1. /. 20.) in
      let lo = Histogram.quantile h 0. in
      let hi = Histogram.quantile h 1.0 in
      let mn = List.fold_left Float.min Float.infinity xs in
      let mx = Histogram.max_observed h in
      lo >= mn /. tol && lo <= mn *. tol
      && hi >= mx /. tol
      && hi <= mx *. tol)

let histogram_merge_prop =
  QCheck2.Test.make ~name:"Histogram.merge_into = concat" ~count:200
    QCheck2.Gen.(
      pair
        (list (float_range 1e-6 1e3))
        (list (float_range 1e-6 1e3)))
    (fun (xs, ys) ->
      let a = Histogram.create ()
      and b = Histogram.create ()
      and c = Histogram.create () in
      List.iter (Histogram.add a) xs;
      List.iter (Histogram.add b) ys;
      List.iter (Histogram.add c) (xs @ ys);
      Histogram.merge_into ~dst:a b;
      Histogram.count a = Histogram.count c
      && feq ~eps:1e-9 (Histogram.mean a) (Histogram.mean c)
      && List.for_all
           (fun q -> feq (Histogram.quantile a q) (Histogram.quantile c q))
           [ 0.1; 0.5; 0.99 ])

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 0.1; 0.2 ];
  List.iter (Histogram.add b) [ 10.; 20. ];
  Histogram.merge_into ~dst:a b;
  Alcotest.(check int) "merged count" 4 (Histogram.count a);
  Alcotest.(check bool) "max" true (feq (Histogram.max_observed a) 20.)

let tests =
  [
    Alcotest.test_case "summary" `Quick test_summary;
    QCheck_alcotest.to_alcotest summary_merge_prop;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram errors" `Quick test_histogram_errors;
    QCheck_alcotest.to_alcotest histogram_quantile_monotone;
    QCheck_alcotest.to_alcotest histogram_quantile_vs_sorted;
    QCheck_alcotest.to_alcotest histogram_quantile_extremes;
    QCheck_alcotest.to_alcotest histogram_merge_prop;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
  ]
