(* Unit and property tests for the math substrate. *)

module Rng = Mathkit.Rng
module C = Mathkit.Cplx
module M = Mathkit.Matrix
module Q = Mathkit.Quaternion
module S = Mathkit.Stats

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_float_range () =
  let t = Rng.create 7 in
  for _ = 1 to 10_000 do
    let f = Rng.float t in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_int_range () =
  let t = Rng.create 9 in
  for _ = 1 to 10_000 do
    let i = Rng.int t 17 in
    if i < 0 || i >= 17 then Alcotest.failf "int out of range: %d" i
  done

let test_rng_int_rejects_bad_bound () =
  let t = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0))

let test_rng_mean () =
  let t = Rng.create 3 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float t
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.01 then Alcotest.failf "biased mean: %f" mean

let test_rng_gaussian_moments () =
  let t = Rng.create 11 in
  let n = 50_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let g = Rng.gaussian t in
    sum := !sum +. g;
    sumsq := !sumsq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  if Float.abs mean > 0.03 then Alcotest.failf "gaussian mean: %f" mean;
  if Float.abs (var -. 1.0) > 0.05 then Alcotest.failf "gaussian var: %f" var

let test_rng_split_independent () =
  let t = Rng.create 5 in
  let u = Rng.split t in
  (* The split stream must not simply mirror the parent. *)
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.int64 t = Rng.int64 u then incr same
  done;
  Alcotest.(check int) "no collisions" 0 !same

let test_rng_shuffle_permutation () =
  let t = Rng.create 123 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_choose () =
  let t = Rng.create 77 in
  for _ = 1 to 100 do
    let x = Rng.choose t [ 1; 2; 3 ] in
    if x < 1 || x > 3 then Alcotest.failf "choose out of range: %d" x
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty list") (fun () ->
      ignore (Rng.choose t []))

(* The SplitMix64 stream is part of every pinned simulation outcome:
   pin its first draws, a split child, and the derived samplers. *)
let test_rng_pinned_stream () =
  let t = Rng.create 0xC0FFEE in
  Alcotest.(check (list int64))
    "first 8"
    [
      -3854493065656348422L; -1376874792606038919L; -8665326297722227765L;
      6517201831895305540L; -4375855199308403592L; -1982160898279456109L;
      633520066235728437L; -2331647910880897857L;
    ]
    (List.init 8 (fun _ -> Rng.int64 t));
  let c = Rng.split t in
  Alcotest.(check (list int64))
    "split child"
    [
      -5403577129699878028L; 9051438248967682303L; -227761578285850220L;
      -8236066607406719803L;
    ]
    (List.init 4 (fun _ -> Rng.int64 c));
  Alcotest.(check string) "float" "0x1.46291a15a15a5p-1" (Printf.sprintf "%h" (Rng.float t));
  Alcotest.(check int) "int" 386 (Rng.int t 1000);
  Alcotest.(check bool) "bool" true (Rng.bool t 0.5);
  Alcotest.(check bool) "child bool" false (Rng.bool c 0.25)

(* Error-flag sampling draws one [bool] per gate per trajectory; it must
   not allocate. *)
let test_rng_bool_allocation_free () =
  let t = Rng.create 7 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    if Rng.bool t 0.01 then incr hits
  done;
  let words = Gc.minor_words () -. before in
  if words >= 100.0 then Alcotest.failf "10^5 Rng.bool draws allocated %.0f minor words" words;
  Alcotest.(check bool) "some hits" true (!hits > 0)

(* The compacted sampler, over the gates whose threshold is positive,
   must hit exactly the gates where [p > 0.0 && Rng.bool rng p] holds
   and leave the same stream state. Besides fixed edge probabilities
   (0, -0, negative, subnormal, 1e-300, 0.5, 1, > 1, infinity, NaN), a
   third of the gates get a probability placed on the reference draw
   itself: the draw's own float and its two neighbours, where [<]
   versus [<=] would differ. *)
let test_rng_threshold_flags () =
  let edges =
    [| 0.0; -0.0; -0.25; 5e-324; 2.2e-308; 1e-300; 1e-17; 0.5; 1.0; 1.5; infinity; nan |]
  in
  let gen = Rng.create 2024 in
  for seed = 1 to 300 do
    let n = 1 + Rng.int gen 40 in
    let reference = Rng.create seed in
    let ps = Array.make n 0.0 in
    let expected = ref [] in
    for i = 0 to n - 1 do
      let p =
        match Rng.int gen 3 with
        | 0 -> edges.(Rng.int gen (Array.length edges))
        | 1 -> Rng.float gen
        | _ ->
          let u = Rng.float (Rng.copy reference) in
          (match Rng.int gen 3 with 0 -> u | 1 -> Float.succ u | _ -> Float.pred u)
      in
      ps.(i) <- p;
      if p > 0.0 && Rng.bool reference p then expected := i :: !expected
    done;
    let thresholds = Array.map Rng.threshold ps in
    let ids = List.filter (fun i -> thresholds.(i) > 0) (List.init n Fun.id) in
    let ids = Array.of_list ids in
    let t = Rng.create seed in
    let hits = Array.make n (-1) in
    let count = Rng.bernoulli_hits t ids (Array.map (fun i -> thresholds.(i)) ids) hits in
    Alcotest.(check (list int)) "hits" (List.rev !expected)
      (Array.to_list (Array.sub hits 0 count));
    Alcotest.(check int64) "stream state" (Rng.int64 reference) (Rng.int64 t)
  done;
  let two53 = 1 lsl 53 in
  Alcotest.(check (list int))
    "thresholds"
    [ 0; 0; 0; 1; 1; 1 lsl 52; two53; two53; two53; 0 ]
    (List.map Rng.threshold [ 0.0; -1.0; -0.0; 5e-324; 1e-300; 0.5; 1.0; 3.0; infinity; nan ]);
  let mismatch = Invalid_argument "Rng.bernoulli_hits: length mismatch" in
  Alcotest.check_raises "thresholds shorter than ids" mismatch (fun () ->
      ignore (Rng.bernoulli_hits (Rng.create 1) [| 0; 1 |] [| 1 |] [| 0; 0 |]));
  Alcotest.check_raises "hits shorter than ids" mismatch (fun () ->
      ignore (Rng.bernoulli_hits (Rng.create 1) [| 0; 1 |] [| 1; 1 |] [| 0 |]))

let test_rng_threshold_flags_allocation_free () =
  let t = Rng.create 7 in
  let ids = Array.init 67 (fun j -> 3 * j / 2) in
  let thresholds = Array.make 67 (Rng.threshold 0.01) in
  let hits = Array.make 67 0 in
  let total = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    total := !total + Rng.bernoulli_hits t ids thresholds hits
  done;
  let words = Gc.minor_words () -. before in
  if words >= 100.0 then
    Alcotest.failf "67000 threshold draws allocated %.0f minor words" words;
  Alcotest.(check bool) "some hits" true (!total > 0)

(* ---------- Cplx ---------- *)

let test_cplx_arith () =
  let a = C.make 1.0 2.0 and b = C.make 3.0 (-1.0) in
  check_float "add re" 4.0 (C.add a b).re;
  check_float "add im" 1.0 (C.add a b).im;
  check_float "mul re" 5.0 (C.mul a b).re;
  check_float "mul im" 5.0 (C.mul a b).im;
  check_float "norm2" 5.0 (C.norm2 a);
  check_float "conj im" (-2.0) (C.conj a).im

let test_cplx_exp_i () =
  let z = C.exp_i (Float.pi /. 2.0) in
  check_float "re" 0.0 z.re;
  check_float "im" 1.0 z.im;
  Alcotest.(check bool) "unit modulus" true (Float.abs (C.abs z -. 1.0) < 1e-12)

let test_cplx_approx () =
  Alcotest.(check bool) "close" true (C.approx (C.make 1.0 0.0) (C.make (1.0 +. 1e-12) 0.0));
  Alcotest.(check bool) "far" false (C.approx (C.make 1.0 0.0) (C.make 1.1 0.0))

(* ---------- Matrix ---------- *)

let test_matrix_identity_mul () =
  let i3 = M.identity 3 in
  let a = M.of_rows [ [ C.re 1.; C.re 2.; C.re 3. ];
                      [ C.re 4.; C.re 5.; C.re 6. ];
                      [ C.re 7.; C.re 8.; C.re 9. ] ] in
  Alcotest.(check bool) "I*A = A" true (M.equal (M.mul i3 a) a);
  Alcotest.(check bool) "A*I = A" true (M.equal (M.mul a i3) a)

let test_matrix_mul_known () =
  let a = M.of_rows [ [ C.re 1.; C.re 2. ]; [ C.re 3.; C.re 4. ] ] in
  let b = M.of_rows [ [ C.re 0.; C.re 1. ]; [ C.re 1.; C.re 0. ] ] in
  let ab = M.mul a b in
  check_float "swap columns" 2.0 (M.get ab 0 0).re;
  check_float "swap columns" 1.0 (M.get ab 0 1).re

let test_matrix_kron_dims () =
  let a = M.identity 2 and b = M.identity 3 in
  let k = M.kron a b in
  Alcotest.(check int) "rows" 6 (M.rows k);
  Alcotest.(check bool) "I kron I = I" true (M.equal k (M.identity 6))

let test_matrix_kron_values () =
  let x = M.of_rows [ [ C.zero; C.one ]; [ C.one; C.zero ] ] in
  let k = M.kron x (M.identity 2) in
  (* X (x) I maps |00> -> |10>: column 0 has a 1 in row 2. *)
  check_float "entry" 1.0 (M.get k 2 0).re;
  check_float "entry" 0.0 (M.get k 0 0).re

let test_matrix_adjoint () =
  let a = M.of_rows [ [ C.make 1. 2.; C.make 3. 4. ]; [ C.make 5. 6.; C.make 7. 8. ] ] in
  let ad = M.adjoint a in
  check_float "transposed re" 3.0 (M.get ad 1 0).re;
  check_float "conjugated im" (-4.0) (M.get ad 1 0).im

let test_matrix_unitary () =
  let h =
    let s = C.re (1.0 /. sqrt 2.0) in
    M.of_rows [ [ s; s ]; [ s; C.neg s ] ]
  in
  Alcotest.(check bool) "H unitary" true (M.is_unitary h);
  let not_unitary = M.of_rows [ [ C.re 1.; C.re 1. ]; [ C.zero; C.re 1. ] ] in
  Alcotest.(check bool) "shear not unitary" false (M.is_unitary not_unitary)

let test_matrix_proportional () =
  let a = M.identity 2 in
  let b = M.scale (C.exp_i 0.7) (M.identity 2) in
  Alcotest.(check bool) "global phase" true (M.proportional a b);
  let c = M.of_rows [ [ C.one; C.zero ]; [ C.zero; C.neg C.one ] ] in
  Alcotest.(check bool) "Z not prop I" false (M.proportional a c)

let test_matrix_apply () =
  let x = M.of_rows [ [ C.zero; C.one ]; [ C.one; C.zero ] ] in
  let v = [| C.one; C.zero |] in
  let r = M.apply x v in
  check_float "flipped" 1.0 r.(1).re;
  check_float "flipped" 0.0 r.(0).re

let test_matrix_trace () =
  let a = M.of_rows [ [ C.re 1.; C.re 9. ]; [ C.re 9.; C.re 2. ] ] in
  check_float "trace" 3.0 (M.trace a).re

(* ---------- Quaternion ---------- *)

let test_quaternion_axis_composition () =
  (* Two quarter turns about X equal a half turn about X. *)
  let q = Q.mul (Q.rx (Float.pi /. 2.0)) (Q.rx (Float.pi /. 2.0)) in
  Alcotest.(check bool) "Rx(pi/2)^2 = Rx(pi)" true (Q.equal_rotation q (Q.rx Float.pi))

let test_quaternion_inverse () =
  let q = Q.of_axis_angle (1.0, 2.0, 3.0) 0.9 in
  Alcotest.(check bool) "q * q^-1 = 1" true
    (Q.is_identity (Q.mul q (Q.conjugate q)))

let test_quaternion_matrix_homomorphism () =
  (* to_matrix must be a group homomorphism up to phase. *)
  let a = Q.of_axis_angle (1.0, 0.0, 2.0) 0.7 in
  let b = Q.of_axis_angle (0.0, 1.0, -1.0) 1.3 in
  let lhs = Q.to_matrix (Q.mul a b) in
  let rhs = M.mul (Q.to_matrix a) (Q.to_matrix b) in
  Alcotest.(check bool) "U(ab) = U(a)U(b)" true (M.proportional lhs rhs)

let test_quaternion_zyz_roundtrip () =
  let rng = Rng.create 31 in
  for _ = 1 to 200 do
    let axis = (Rng.gaussian rng, Rng.gaussian rng, Rng.gaussian rng) in
    let theta = Rng.float rng *. 2.0 *. Float.pi in
    let q = try Q.of_axis_angle axis theta with Invalid_argument _ -> Q.identity in
    let alpha, beta, gamma = Q.to_zyz q in
    let rebuilt = Q.mul (Q.rz alpha) (Q.mul (Q.ry beta) (Q.rz gamma)) in
    if not (Q.equal_rotation ~eps:1e-6 q rebuilt) then
      Alcotest.failf "zyz roundtrip failed for %s" (Format.asprintf "%a" Q.pp q)
  done

let test_quaternion_zxz_roundtrip () =
  let rng = Rng.create 37 in
  for _ = 1 to 200 do
    let axis = (Rng.gaussian rng, Rng.gaussian rng, Rng.gaussian rng) in
    let theta = Rng.float rng *. 2.0 *. Float.pi in
    let q = try Q.of_axis_angle axis theta with Invalid_argument _ -> Q.identity in
    let alpha, beta, gamma = Q.to_zxz q in
    let rebuilt = Q.mul (Q.rz alpha) (Q.mul (Q.rx beta) (Q.rz gamma)) in
    if not (Q.equal_rotation ~eps:1e-6 q rebuilt) then
      Alcotest.failf "zxz roundtrip failed for %s" (Format.asprintf "%a" Q.pp q)
  done

let test_quaternion_z_rotation_detection () =
  Alcotest.(check bool) "rz is z-rot" true (Q.is_z_rotation (Q.rz 0.4));
  Alcotest.(check bool) "identity is z-rot" true (Q.is_z_rotation Q.identity);
  Alcotest.(check bool) "rx is not" false (Q.is_z_rotation (Q.rx 0.4));
  check_float_loose "angle recovered" 0.4 (Q.z_angle (Q.rz 0.4))

let test_quaternion_rxy () =
  (* Rxy at phi = 0 is Rx; at phi = pi/2 it is Ry. *)
  Alcotest.(check bool) "rxy 0 = rx" true
    (Q.equal_rotation (Q.rxy 0.8 0.0) (Q.rx 0.8));
  Alcotest.(check bool) "rxy pi/2 = ry" true
    (Q.equal_rotation (Q.rxy 0.8 (Float.pi /. 2.0)) (Q.ry 0.8))

let test_quaternion_degenerate_euler () =
  (* beta = 0 (pure Z) and beta = pi edge cases. *)
  let a1, b1, g1 = Q.to_zyz (Q.rz 1.1) in
  check_float_loose "pure z beta" 0.0 b1;
  Alcotest.(check bool) "pure z rebuilt" true
    (Q.equal_rotation ~eps:1e-6 (Q.rz 1.1)
       (Q.mul (Q.rz a1) (Q.mul (Q.ry b1) (Q.rz g1))));
  let a2, b2, g2 = Q.to_zyz (Q.rx Float.pi) in
  check_float_loose "x flip beta" Float.pi b2;
  Alcotest.(check bool) "x flip rebuilt" true
    (Q.equal_rotation ~eps:1e-6 (Q.rx Float.pi)
       (Q.mul (Q.rz a2) (Q.mul (Q.ry b2) (Q.rz g2))))

(* ---------- Stats ---------- *)

let test_stats_basic () =
  check_float "mean" 2.0 (S.mean [ 1.0; 2.0; 3.0 ]);
  check_float "sum" 6.0 (S.sum [ 1.0; 2.0; 3.0 ]);
  check_float "geomean" 2.0 (S.geomean [ 1.0; 2.0; 4.0 ]);
  check_float "median odd" 2.0 (S.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (S.median [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "min" 1.0 (S.minimum [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (S.maximum [ 3.0; 1.0; 2.0 ])

let test_stats_stddev () =
  check_float "constant" 0.0 (S.stddev [ 5.0; 5.0; 5.0 ]);
  check_float_loose "known" (sqrt 2.0) (S.stddev [ 1.0; 3.0; 5.0; 3.0 ])

let test_stats_geomean_ratio () =
  check_float "2x everywhere" 2.0 (S.geomean_ratio [ (2.0, 1.0); (4.0, 2.0) ]);
  Alcotest.check_raises "all dropped -> raises"
    (Invalid_argument "Stats.geomean_ratio: no pairs with a non-zero denominator")
    (fun () -> ignore (S.geomean_ratio [ (1.0, 0.0) ]));
  Alcotest.(check (option (float 1e-12)))
    "opt: all dropped -> None" None
    (S.geomean_ratio_opt [ (1.0, 0.0) ]);
  Alcotest.(check (option (float 1e-12)))
    "opt: zero denominators skipped" (Some 2.0)
    (S.geomean_ratio_opt [ (2.0, 1.0); (1.0, 0.0) ])

let test_stats_percentile () =
  let l = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "p0" 1.0 (S.percentile 0.0 l);
  check_float "p50" 3.0 (S.percentile 50.0 l);
  check_float "p100" 5.0 (S.percentile 100.0 l);
  check_float "p25" 2.0 (S.percentile 25.0 l)

let test_stats_correlation () =
  let perfect = List.init 10 (fun i -> (float_of_int i, 2.0 +. (3.0 *. float_of_int i))) in
  Alcotest.(check (float 1e-9)) "perfect" 1.0 (S.correlation perfect);
  let inverse = List.map (fun (x, y) -> (x, -.y)) perfect in
  Alcotest.(check (float 1e-9)) "anti" (-1.0) (S.correlation inverse);
  Alcotest.(check bool) "too few" true
    (try ignore (S.correlation [ (1.0, 1.0) ]); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero variance" true
    (try ignore (S.correlation [ (1.0, 5.0); (2.0, 5.0) ]); false
     with Invalid_argument _ -> true)

let test_stats_empty () =
  Alcotest.check_raises "mean" (Invalid_argument "Stats.mean: empty list") (fun () ->
      ignore (S.mean []))

(* ---------- qcheck properties ---------- *)

let quaternion_gen =
  QCheck.Gen.(
    map
      (fun (w, x, y, z) ->
        let q = { Q.w; x; y; z } in
        if Q.norm q < 1e-6 then Q.identity else Q.normalize q)
      (quad (float_range (-1.0) 1.0) (float_range (-1.0) 1.0)
         (float_range (-1.0) 1.0) (float_range (-1.0) 1.0)))

let quaternion_arb = QCheck.make quaternion_gen

let prop_quaternion_norm_preserved =
  QCheck.Test.make ~name:"quaternion product stays unit" ~count:500
    (QCheck.pair quaternion_arb quaternion_arb) (fun (a, b) ->
      Float.abs (Q.norm (Q.mul a b) -. 1.0) < 1e-9)

let prop_quaternion_matrix_unitary =
  QCheck.Test.make ~name:"quaternion matrix is unitary" ~count:500 quaternion_arb
    (fun q -> M.is_unitary ~eps:1e-8 (Q.to_matrix q))

let prop_zyz_total =
  QCheck.Test.make ~name:"zyz always reconstructs" ~count:500 quaternion_arb
    (fun q ->
      let a, b, g = Q.to_zyz q in
      Q.equal_rotation ~eps:1e-6 q (Q.mul (Q.rz a) (Q.mul (Q.ry b) (Q.rz g))))

let prop_geomean_bounds =
  QCheck.Test.make ~name:"geomean between min and max" ~count:500
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.001 1000.0))
    (fun l ->
      l = []
      ||
      let g = S.geomean l in
      g >= S.minimum l -. 1e-9 && g <= S.maximum l +. 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_quaternion_norm_preserved;
      prop_quaternion_matrix_unitary;
      prop_zyz_total;
      prop_geomean_bounds;
    ]

let () =
  Alcotest.run "mathkit"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "uniform mean" `Quick test_rng_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "choose" `Quick test_rng_choose;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
          Alcotest.test_case "bool allocation-free" `Quick test_rng_bool_allocation_free;
          Alcotest.test_case "threshold flags exact" `Quick test_rng_threshold_flags;
          Alcotest.test_case "threshold flags allocation-free" `Quick
            test_rng_threshold_flags_allocation_free;
        ] );
      ( "cplx",
        [
          Alcotest.test_case "arithmetic" `Quick test_cplx_arith;
          Alcotest.test_case "exp_i" `Quick test_cplx_exp_i;
          Alcotest.test_case "approx" `Quick test_cplx_approx;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "identity mul" `Quick test_matrix_identity_mul;
          Alcotest.test_case "mul known" `Quick test_matrix_mul_known;
          Alcotest.test_case "kron dims" `Quick test_matrix_kron_dims;
          Alcotest.test_case "kron values" `Quick test_matrix_kron_values;
          Alcotest.test_case "adjoint" `Quick test_matrix_adjoint;
          Alcotest.test_case "unitarity" `Quick test_matrix_unitary;
          Alcotest.test_case "proportional" `Quick test_matrix_proportional;
          Alcotest.test_case "apply" `Quick test_matrix_apply;
          Alcotest.test_case "trace" `Quick test_matrix_trace;
        ] );
      ( "quaternion",
        [
          Alcotest.test_case "axis composition" `Quick test_quaternion_axis_composition;
          Alcotest.test_case "inverse" `Quick test_quaternion_inverse;
          Alcotest.test_case "matrix homomorphism" `Quick test_quaternion_matrix_homomorphism;
          Alcotest.test_case "zyz roundtrip" `Quick test_quaternion_zyz_roundtrip;
          Alcotest.test_case "zxz roundtrip" `Quick test_quaternion_zxz_roundtrip;
          Alcotest.test_case "z-rotation detection" `Quick test_quaternion_z_rotation_detection;
          Alcotest.test_case "rxy axes" `Quick test_quaternion_rxy;
          Alcotest.test_case "degenerate euler" `Quick test_quaternion_degenerate_euler;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basic;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "geomean ratio" `Quick test_stats_geomean_ratio;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "empty input" `Quick test_stats_empty;
          Alcotest.test_case "correlation" `Quick test_stats_correlation;
        ] );
      ("properties", qcheck_cases);
    ]
