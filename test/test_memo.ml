(* Parallel.Memo, the one cache implementation behind every process-global
   cache: exact LRU order and eviction, per-generation stats, domain
   safety under concurrent find_or_add, and the bound on the Clifford
   action memo. *)

module Memo = Parallel.Memo
module Int_memo = Memo.Make (Int)

let counts (s : Memo.stats) = [ s.Memo.hits; s.Memo.misses; s.Memo.evictions; s.Memo.size ]
let check_stats what expected t =
  Alcotest.(check (list int)) what expected (counts (Int_memo.stats t))

let add t k = ignore (Int_memo.find_or_add t k (fun () -> k))

(* [resident t k] probes [k]: a hit only moves it to the newest end. *)
let resident t k =
  let computed = ref false in
  ignore (Int_memo.find_or_add t k (fun () -> computed := true; k));
  not !computed

let test_lru_eviction () =
  let t = Int_memo.create ~name:"test.memo.lru" ~capacity:2 in
  (* Touch 0 so 1 is the least recently used, then overflow. *)
  List.iter (add t) [ 0; 1; 0; 2 ];
  check_stats "hits, misses, evictions, size" [ 1; 3; 1; 2 ] t;
  let kept = resident t 0 in
  let evicted = not (resident t 1) in
  Alcotest.(check (pair bool bool)) "recently used kept, LRU evicted" (true, true)
    (kept, evicted);
  Int_memo.clear t;
  Alcotest.check_raises "compute raises" Exit (fun () ->
      ignore (Int_memo.find_or_add t 1 (fun () -> raise Exit)));
  check_stats "clear starts a generation; a raise stores nothing" [ 0; 1; 0; 0 ] t;
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Parallel.Memo.create: capacity must be positive") (fun () ->
      ignore (Int_memo.create ~name:"test.memo.bad" ~capacity:0))

let test_lru_order () =
  (* [check order]: the residents are exactly [order], oldest first;
     probing oldest-first leaves the recency order as it was. *)
  let t = Int_memo.create ~name:"test.memo.order" ~capacity:3 in
  let check order =
    List.iter (fun k -> if not (resident t k) then Alcotest.failf "%d evicted" k) order;
    Alcotest.(check int) "size" 3 (Int_memo.stats t).Memo.size
  in
  List.iter (add t) [ 0; 1; 2; 0 ];
  check [ 1; 2; 0 ];
  add t 3;
  check [ 2; 0; 3 ];
  add t 4;
  check [ 0; 3; 4 ];
  (* The cumulative counters outlive [clear], which counts as evictions. *)
  Int_memo.clear t;
  let counter name =
    match List.assoc_opt ("test.memo.order." ^ name) (Obs.Metrics.dump ()) with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> Alcotest.failf "counter %s missing" name
  in
  Alcotest.(check (list int)) "hits, misses, evictions counters" [ 10; 5; 5 ]
    (List.map counter [ "hits"; "misses"; "evictions" ]);
  check_stats "stats reset" [ 0; 0; 0; 0 ] t

(* 8 domains over overlapping keys. The computation is slow and allocates
   a fresh value, so double misses happen and physical identity shows. *)
let hammer ~capacity ~keys =
  let domains = 8 and calls = 400 in
  let t = Int_memo.create ~name:"test.memo.stress" ~capacity in
  let slow k = ignore (Sys.opaque_identity (List.init 500 Fun.id)); ref k in
  let run d () =
    List.init calls (fun i ->
        let k = ((i * 7) + (d * 13)) mod keys in
        (k, Int_memo.find_or_add t k (fun () -> slow k)))
  in
  let spawned = List.init domains (fun d -> Domain.spawn (run d)) in
  let results = List.concat_map Domain.join spawned in
  List.iter (fun (k, v) -> Alcotest.(check int) "value matches key" k !v) results;
  let st = Int_memo.stats t in
  Alcotest.(check int) "hits + misses = calls" (domains * calls)
    (st.Memo.hits + st.Memo.misses);
  Alcotest.(check bool) "size <= capacity" true (st.Memo.size <= capacity);
  (results, st)

let test_domains_one_value_per_key () =
  (* Every key stays resident, so its callers all get one physical value. *)
  let results, st = hammer ~capacity:32 ~keys:32 in
  let first = Hashtbl.create 32 in
  List.iter
    (fun (k, v) ->
      if not (v == Option.value (Hashtbl.find_opt first k) ~default:v) then
        Alcotest.failf "key %d: two physical values" k;
      Hashtbl.replace first k v)
    results;
  Alcotest.(check (list int)) "all resident, none evicted" [ 0; 32 ]
    [ st.Memo.evictions; st.Memo.size ]

let test_domains_bounded () =
  let _, st = hammer ~capacity:16 ~keys:64 in
  Alcotest.(check bool) "churned" true (st.Memo.evictions > 0)

let test_action_memo_bounded () =
  (* 10^5 distinct Rz angles must not grow the Clifford-action memo past
     its documented capacity (4096). *)
  for i = 1 to 100_000 do
    let angle = 1e-3 +. (float_of_int i *. 1e-5) in
    ignore (Dataflow.Tableau.Action.of_gate (Ir.Gate.One (Ir.Gate.Rz angle, 0)))
  done;
  let st = Dataflow.Tableau.Action.memo_stats () in
  Alcotest.(check (pair bool bool)) "bounded, evicting" (true, true)
    (st.Memo.size <= 4096, st.Memo.evictions > 0);
  Alcotest.(check bool) "Clifford gates still recognized" true
    (Dataflow.Tableau.is_clifford_gate (Ir.Gate.One (Ir.Gate.H, 0)))

let () =
  Alcotest.run "memo"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction" `Quick test_lru_eviction;
          Alcotest.test_case "exact order" `Quick test_lru_order;
        ] );
      ( "domains",
        [
          Alcotest.test_case "one value per key" `Quick test_domains_one_value_per_key;
          Alcotest.test_case "bounded under churn" `Quick test_domains_bounded;
        ] );
      ( "instances",
        [ Alcotest.test_case "action memo bounded" `Quick test_action_memo_bounded ] );
    ]
