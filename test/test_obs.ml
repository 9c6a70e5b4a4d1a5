(* Observability-layer tests: span nesting and ordering (single-domain
   and under a -j 8 domain pool), histogram bucket geometry, exporter
   round-trips (the Chrome trace and JSONL lines re-parse with
   Obs.Json.parse), the JSON writer/reader round-trip (a QCheck property
   and a table of documents as standard writers print them), the
   null-sink no-op contract (instrumentation must not perturb compile or
   simulation results), pass_times_s as a derived view of the pass
   spans, metrics counter deltas, and the shared CLI envelope. *)

module Span = Obs.Span
module Metrics = Obs.Metrics
module Export = Obs.Export
module Json = Obs.Json
module Pool = Parallel.Pool
module Runner = Sim.Runner
module Programs = Bench_kit.Programs

(* Spans are recorded into one process-wide sink; each test that uses it
   starts from a clean, enabled sink and leaves it disabled. *)
let with_sink f =
  Span.enable ();
  Span.reset ();
  Fun.protect ~finally:(fun () -> Span.disable (); Span.reset ()) f

(* ---------- Spans ---------- *)

let test_span_nesting () =
  with_sink (fun () ->
      let r =
        Span.with_span "outer" (fun () ->
            Span.with_span ~attrs:[ ("k", Span.Int 7) ] "inner" (fun () -> 41)
            + 1)
      in
      Alcotest.(check int) "body result" 42 r;
      match Span.collected () with
      | [ outer; inner ] ->
        Alcotest.(check string) "outer name" "outer" outer.Span.name;
        Alcotest.(check string) "inner name" "inner" inner.Span.name;
        Alcotest.(check (option int))
          "inner parented to outer" (Some outer.Span.id) inner.Span.parent;
        Alcotest.(check (option int)) "outer is a root" None outer.Span.parent;
        Alcotest.(check bool) "inner starts after outer" true
          (Int64.compare inner.Span.start_ns outer.Span.start_ns >= 0);
        Alcotest.(check bool) "inner ends before outer" true
          (Int64.add inner.Span.start_ns inner.Span.dur_ns
           <= Int64.add outer.Span.start_ns outer.Span.dur_ns);
        Alcotest.(check bool) "attr kept" true
          (List.mem_assoc "k" inner.Span.attrs)
      | spans ->
        Alcotest.failf "expected 2 spans sorted outer-first, got %d"
          (List.length spans))

let test_span_exception_records () =
  with_sink (fun () ->
      (try Span.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
      match Span.collected () with
      | [ s ] -> Alcotest.(check string) "recorded on raise" "boom" s.Span.name
      | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans))

let test_span_pool_j8 () =
  with_sink (fun () ->
      let n = 32 in
      let squares =
        Pool.with_pool ~jobs:8 (fun pool ->
            Span.with_span "outer" (fun () ->
                Pool.map pool
                  (fun i ->
                    Span.with_span ~attrs:[ ("i", Span.Int i) ] "task"
                      (fun () -> i * i))
                  (List.init n Fun.id)))
      in
      Alcotest.(check (list int))
        "pool results unperturbed"
        (List.init n (fun i -> i * i))
        squares;
      let spans = Span.collected () in
      let outer =
        match List.filter (fun s -> s.Span.name = "outer") spans with
        | [ o ] -> o
        | l -> Alcotest.failf "expected 1 outer span, got %d" (List.length l)
      in
      let tasks = List.filter (fun s -> s.Span.name = "task") spans in
      Alcotest.(check int) "one span per task" n (List.length tasks);
      (* Parenting is per-domain: tasks that ran on the caller's domain
         nest under [outer]; tasks on worker domains are roots with a
         distinct domain id (the Chrome exporter shows them as lanes). *)
      List.iter
        (fun t ->
          match t.Span.parent with
          | Some p ->
            Alcotest.(check int) "parented task under outer" outer.Span.id p
          | None ->
            Alcotest.(check bool) "root task ran on a worker domain" true
              (t.Span.domain <> outer.Span.domain))
        tasks;
      (* [collected] sorts by (start_ns, id). *)
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          (Int64.compare a.Span.start_ns b.Span.start_ns < 0
          || (a.Span.start_ns = b.Span.start_ns && a.Span.id < b.Span.id))
          && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "sorted by (start_ns, id)" true (sorted spans))

(* ---------- Histogram bucket geometry ---------- *)

let test_histogram_bucket_edges () =
  let idx = Metrics.bucket_index in
  Alcotest.(check int) "1.0 -> bucket 0" 0 (idx 1.0);
  Alcotest.(check int) "0.5 -> bucket 0" 0 (idx 0.5);
  Alcotest.(check int) "0.0 -> bucket 0" 0 (idx 0.0);
  Alcotest.(check int) "negative -> bucket 0" 0 (idx (-3.0));
  Alcotest.(check int) "nan -> bucket 0" 0 (idx Float.nan);
  Alcotest.(check int) "1.0+eps -> bucket 1" 1 (idx 1.0000001);
  Alcotest.(check int) "2.0 -> bucket 1 (inclusive upper)" 1 (idx 2.0);
  Alcotest.(check int) "2.0+eps -> bucket 2" 2 (idx 2.0000001);
  Alcotest.(check int) "4.0 -> bucket 2" 2 (idx 4.0);
  Alcotest.(check int) "1024 -> bucket 10" 10 (idx 1024.0);
  Alcotest.(check int) "inf -> last" (Metrics.n_buckets - 1) (idx Float.infinity);
  Alcotest.(check int) "huge -> last" (Metrics.n_buckets - 1) (idx 1e300);
  Alcotest.(check (float 0.0)) "upper 0" 1.0 (Metrics.bucket_upper 0);
  Alcotest.(check (float 0.0)) "upper 3" 8.0 (Metrics.bucket_upper 3);
  Alcotest.(check bool) "last upper open-ended" true
    (Metrics.bucket_upper (Metrics.n_buckets - 1) = Float.infinity)

let test_histogram_observe () =
  let h = Metrics.histogram "test.obs.histogram" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 2.0; 3.0; 1024.0 ];
  match List.assoc "test.obs.histogram" (Metrics.dump ()) with
  | Metrics.Histogram { count; sum; buckets } ->
    Alcotest.(check int) "count" 5 count;
    Alcotest.(check (float 1e-9)) "sum" 1030.5 sum;
    Alcotest.(check (list (pair (float 0.0) int)))
      "non-empty buckets (upper, n)"
      [ (1.0, 2); (2.0, 1); (4.0, 1); (1024.0, 1) ]
      buckets
  | _ -> Alcotest.fail "expected a histogram"

(* ---------- Exporters ---------- *)

let make_spans () =
  with_sink (fun () ->
      Span.with_span ~attrs:[ ("m", Span.Str "IBMQ5") ] "compile" (fun () ->
          Span.with_span "pass.routing" (fun () -> ());
          Span.with_span ~attrs:[ ("block", Span.Int 0) ] "sim.block"
            (fun () -> ()));
      Span.collected ())

let test_chrome_roundtrip () =
  let spans = make_spans () in
  let doc = Json.parse (Export.chrome spans) in
  let events = Json.(to_list (member "traceEvents" doc)) in
  Alcotest.(check int) "one event per span" (List.length spans)
    (List.length events);
  let names =
    List.map (fun e -> Json.(to_str (member "name" e))) events
  in
  Alcotest.(check bool) "compile event present" true (List.mem "compile" names);
  List.iter
    (fun e ->
      Alcotest.(check string)
        "complete event" "X"
        Json.(to_str (member "ph" e));
      Alcotest.(check bool) "relative ts >= 0" true
        (Json.(to_float (member "ts" e)) >= 0.0);
      Alcotest.(check bool) "dur >= 0" true
        (Json.(to_float (member "dur" e)) >= 0.0);
      ignore Json.(to_int (member "tid" e)))
    events;
  let cats =
    List.map (fun e -> Json.(to_str (member "cat" e))) events
  in
  Alcotest.(check bool) "category = name prefix" true (List.mem "sim" cats)

let test_jsonl_roundtrip () =
  let spans = make_spans () in
  let lines =
    String.split_on_char '\n' (String.trim (Export.jsonl spans))
  in
  Alcotest.(check int) "one line per span" (List.length spans)
    (List.length lines);
  List.iter2
    (fun line (s : Span.t) ->
      let doc = Json.parse line in
      Alcotest.(check string)
        "name" s.Span.name
        Json.(to_str (member "name" doc));
      Alcotest.(check int) "id" s.Span.id Json.(to_int (member "id" doc));
      (* start_ns/dur_ns are strings: they do not fit a double exactly. *)
      Alcotest.(check string)
        "dur_ns" (Int64.to_string s.Span.dur_ns)
        Json.(to_str (member "dur_ns" doc)))
    lines spans

let test_text_tree_nesting () =
  let spans = make_spans () in
  let text = Export.text_tree spans in
  Alcotest.(check bool) "root at margin" true
    (String.length text > 0 && text.[0] = 'c');
  Alcotest.(check bool) "child indented" true
    (let needle = "  pass.routing" in
     let rec find i =
       i + String.length needle <= String.length text
       && (String.sub text i (String.length needle) = needle || find (i + 1))
     in
     find 0)

(* ---------- Null sink ---------- *)

let test_null_sink_no_op () =
  Span.disable ();
  Span.reset ();
  let r = Span.with_span "ghost" (fun () -> 13) in
  let r', dt = Span.timed "ghost2" (fun () -> 14) in
  Alcotest.(check int) "with_span transparent" 13 r;
  Alcotest.(check int) "timed transparent" 14 r';
  Alcotest.(check bool) "timed still measures" true (dt >= 0.0);
  Alcotest.(check int) "nothing collected" 0 (List.length (Span.collected ()))

(* Tracing must not perturb results: the same compile + simulation with
   the sink off and on yields bit-identical outputs. *)
let test_null_sink_golden_compile () =
  let p = Programs.bv 4 in
  let machine = Device.Machines.ibmq14 in
  let compile () =
    Triq.Pipeline.compile_level machine p.Programs.circuit
      ~level:Triq.Pipeline.OneQOptCN
  in
  let simulate c =
    Runner.simulate
      ~config:(Runner.Config.make ~trajectories:40 ())
      (Triq.Pipeline.to_compiled c) p.Programs.spec
  in
  Span.disable ();
  let c_off = compile () in
  let o_off = simulate c_off in
  with_sink (fun () ->
      let c_on = compile () in
      let o_on = simulate c_on in
      Alcotest.(check bool) "placement identical" true
        (c_off.Triq.Pipeline.initial_placement
        = c_on.Triq.Pipeline.initial_placement);
      Alcotest.(check bool) "distribution identical" true
        (o_off.Runner.distribution = o_on.Runner.distribution);
      Alcotest.(check (float 0.0))
        "success identical" o_off.Runner.success_rate o_on.Runner.success_rate)

(* ---------- pass_times_s as a derived view of the spans ---------- *)

let test_pass_times_derived_from_spans () =
  let p = Programs.bv 4 in
  with_sink (fun () ->
      let r =
        Triq.Pipeline.compile_level Device.Machines.ibmq14 p.Programs.circuit
          ~level:Triq.Pipeline.OneQOptCN
      in
      let spans = Span.collected () in
      let compile_span =
        List.find (fun s -> s.Span.name = "compile") spans
      in
      List.iter
        (fun (name, seconds) ->
          match
            List.find_opt (fun s -> s.Span.name = "pass." ^ name) spans
          with
          | None -> Alcotest.failf "no span for pass %s" name
          | Some s ->
            (* timed returns the exact measurement the span records. *)
            Alcotest.(check (float 0.0))
              (name ^ " span is the measurement")
              (Obs.Clock.ns_to_s s.Span.dur_ns)
              seconds;
            Alcotest.(check (option int))
              (name ^ " nests under compile")
              (Some compile_span.Span.id) s.Span.parent)
        r.Triq.Pipeline.pass_times_s;
      let sum =
        List.fold_left (fun a (_, s) -> a +. s) 0.0 r.Triq.Pipeline.pass_times_s
      in
      Alcotest.(check bool) "sum of passes <= compile total" true
        (sum <= Obs.Clock.ns_to_s compile_span.Span.dur_ns +. 1e-6))

(* ---------- Metrics counters ---------- *)

let counter_value name =
  match List.assoc_opt name (Metrics.dump ()) with
  | Some (Metrics.Counter n) -> n
  | _ -> 0

let test_metrics_compile_counters () =
  let p = Programs.bv 4 in
  let before = counter_value "triq.compile.count" in
  let before_routing = counter_value "triq.pass.runs.routing" in
  ignore
    (Triq.Pipeline.compile_level Device.Machines.ibmq14 p.Programs.circuit
       ~level:Triq.Pipeline.OneQOptCN);
  Alcotest.(check int) "compile.count +1" (before + 1)
    (counter_value "triq.compile.count");
  Alcotest.(check int) "pass.runs.routing +1" (before_routing + 1)
    (counter_value "triq.pass.runs.routing")

(* ---------- JSON writer/reader round-trip ---------- *)

(* Integral floats print without a dot and read back as [Int]. *)
let rec json_equal a b =
  match (a, b) with
  | Json.Float f, Json.Int i | Json.Int i, Json.Float f -> f = float_of_int i
  | Json.List xs, Json.List ys -> List.equal json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, x) (l, y) -> k = l && json_equal x y) xs ys
  | _ -> a = b

let json_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:(map Char.chr (int_range 0 127)) (int_range 0 8) in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) finite;
        map (fun s -> Json.Str s) str;
      ]
  in
  let rec value depth =
    if depth = 0 then leaf
    else
      let child = value (depth - 1) in
      frequency
        [
          (3, leaf);
          (1, map (fun l -> Json.List l) (list_size (int_range 0 4) child));
          (1, map (fun kvs -> Json.Obj kvs) (list_size (int_range 0 4) (pair str child)));
        ]
  in
  value 6

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (to_string v) = v"
    (QCheck.make ~print:(Json.to_string ~pretty:false) json_gen)
    (fun v ->
      List.for_all
        (fun pretty -> json_equal (Json.parse (Json.to_string ~pretty v)) v)
        [ false; true ])

(* Documents as standard writers (Python's json.dumps, JavaScript's
   JSON.stringify) print them, read exactly: integer literals as [Int],
   every other number as [Float]. *)
let test_json_standard_documents () =
  List.iter
    (fun (text, want) ->
      Alcotest.(check bool) text true (Json.parse text = want))
    [
      ({|{"a": 1, "b": 2.5}|}, Json.Obj [ ("a", Json.Int 1); ("b", Json.Float 2.5) ]);
      ( {|[1e3, -0.5E-2, 2E+2, 0, -0, 1.0]|},
        Json.List
          [ Json.Float 1000.; Json.Float (-0.005); Json.Float 200.; Json.Int 0;
            Json.Int 0; Json.Float 1.0 ] );
      ( {|{"x": [], "y": {}, "z": [[], [{}]]}|},
        Json.Obj
          [
            ("x", Json.List []);
            ("y", Json.Obj []);
            ("z", Json.List [ Json.List []; Json.List [ Json.Obj [] ] ]);
          ] );
      ( {|"\u00e9 \ud83d\ude00 \u0001 \/ \b\f"|},
        Json.Str "\xc3\xa9 \xf0\x9f\x98\x80 \001 / \b\012" );
      ("  [ true , false , null ]  \n", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
      ("-12345678901234567890", Json.Float (-12345678901234567890.));
      ({|{"k": "v", "k": 2}|}, Json.Obj [ ("k", Json.Str "v"); ("k", Json.Int 2) ]);
    ]

(* ---------- CLI envelope ---------- *)

let test_output_envelope () =
  Alcotest.(check string)
    "envelope shape"
    {|{"ok":true,"command":"metrics","data":{"a":1,"b":"x"}}|}
    (Obs.Output.to_string ~ok:true ~command:"metrics"
       (Json.Obj [ ("a", Json.Int 1); ("b", Json.Str "x") ]))

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "records on exception" `Quick
            test_span_exception_records;
          Alcotest.test_case "pool -j 8" `Quick test_span_pool_j8;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "observe" `Quick test_histogram_observe;
          Alcotest.test_case "compile counters" `Quick
            test_metrics_compile_counters;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome round-trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "text tree" `Quick test_text_tree_nesting;
        ] );
      ( "null sink",
        [
          Alcotest.test_case "no-op" `Quick test_null_sink_no_op;
          Alcotest.test_case "golden compile" `Quick
            test_null_sink_golden_compile;
        ] );
      ( "derived views",
        [
          Alcotest.test_case "pass_times_s from spans" `Quick
            test_pass_times_derived_from_spans;
        ] );
      ( "json",
        [
          Alcotest.test_case "standard documents" `Quick test_json_standard_documents;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "cli",
        [
          Alcotest.test_case "envelope" `Quick test_output_envelope;
        ] );
    ]
