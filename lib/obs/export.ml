type format = [ `Chrome | `Jsonl | `Text ]

let format_of_string = function
  | "chrome" -> Some `Chrome
  | "jsonl" -> Some `Jsonl
  | "text" -> Some `Text
  | _ -> None

let attr_json : Span.attr -> Json.t = function
  | Span.Str s -> Json.Str s
  | Span.Int i -> Json.Int i
  | Span.Float f -> Json.Float f
  | Span.Bool b -> Json.Bool b

let attrs_json attrs = Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) attrs)

let attr_text : Span.attr -> string = function
  | Span.Str s -> s
  | Span.Int i -> string_of_int i
  | Span.Float f -> Printf.sprintf "%g" f
  | Span.Bool b -> string_of_bool b

let text_tree spans =
  let children = Hashtbl.create 64 in
  let ids = Hashtbl.create 64 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace ids s.id ()) spans;
  (* [spans] comes from [Span.collected] already sorted by start time, so
     per-parent child lists stay in start order. Spans whose parent is
     missing from the list (e.g. after a [reset]) root at top level. *)
  let roots =
    List.filter
      (fun (s : Span.t) ->
        match s.parent with
        | Some p when Hashtbl.mem ids p ->
          Hashtbl.add children p s;
          false
        | _ -> true)
      spans
  in
  let b = Buffer.create 1024 in
  let rec emit depth (s : Span.t) =
    Buffer.add_string b (String.make (2 * depth) ' ');
    Buffer.add_string b s.name;
    Buffer.add_string b (Printf.sprintf "  %.3f ms" (Clock.ns_to_s s.dur_ns *. 1e3));
    if s.domain <> 0 then Buffer.add_string b (Printf.sprintf "  [d%d]" s.domain);
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %s=%s" k (attr_text v)))
      s.attrs;
    Buffer.add_char b '\n';
    List.iter (emit (depth + 1)) (List.rev (Hashtbl.find_all children s.id))
  in
  List.iter (emit 0) roots;
  Buffer.contents b

let span_json (s : Span.t) =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", (match s.parent with None -> Json.Null | Some p -> Json.Int p));
      ("name", Json.Str s.name);
      ("domain", Json.Int s.domain);
      ("start_ns", Json.Str (Int64.to_string s.start_ns));
      ("dur_ns", Json.Str (Int64.to_string s.dur_ns));
      ("attrs", attrs_json s.attrs);
    ]

let jsonl spans =
  let b = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string b (Json.to_string (span_json s));
      Buffer.add_char b '\n')
    spans;
  Buffer.contents b

let chrome spans =
  let t0 =
    List.fold_left
      (fun acc (s : Span.t) -> if Int64.compare s.start_ns acc < 0 then s.start_ns else acc)
      (match spans with [] -> 0L | (s : Span.t) :: _ -> s.start_ns)
      spans
  in
  let event (s : Span.t) =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (match String.index_opt s.name '.' with
                          | Some i -> String.sub s.name 0 i
                          | None -> s.name));
        ("ph", Json.Str "X");
        ("ts", Json.Float (Clock.ns_to_us (Int64.sub s.start_ns t0)));
        ("dur", Json.Float (Clock.ns_to_us s.dur_ns));
        ("pid", Json.Int 0);
        ("tid", Json.Int s.domain);
        ("args", attrs_json s.attrs);
      ]
  in
  Json.to_string ~pretty:true
    (Json.Obj
       [
         ("traceEvents", Json.List (List.map event spans));
         ("displayTimeUnit", Json.Str "ms");
       ])

let render fmt spans =
  match fmt with
  | `Chrome -> chrome spans
  | `Jsonl -> jsonl spans
  | `Text -> text_tree spans

let bucket_label upper =
  if upper = Float.infinity then "+inf" else Printf.sprintf "%g" upper

let metrics_text metrics =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, v) ->
      match (v : Metrics.value) with
      | Metrics.Counter n -> Buffer.add_string b (Printf.sprintf "%s counter %d\n" name n)
      | Metrics.Gauge g -> Buffer.add_string b (Printf.sprintf "%s gauge %g\n" name g)
      | Metrics.Histogram { count; sum; buckets } ->
        Buffer.add_string b (Printf.sprintf "%s histogram count=%d sum=%g\n" name count sum);
        List.iter
          (fun (upper, n) ->
            Buffer.add_string b (Printf.sprintf "  le %s: %d\n" (bucket_label upper) n))
          buckets)
    metrics;
  Buffer.contents b

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, v) ->
         let body =
           match (v : Metrics.value) with
           | Metrics.Counter n -> Json.Int n
           | Metrics.Gauge g -> Json.Float g
           | Metrics.Histogram { count; sum; buckets } ->
             Json.Obj
               [
                 ("count", Json.Int count);
                 ("sum", Json.Float sum);
                 ( "buckets",
                   Json.List
                     (List.map
                        (fun (upper, n) ->
                          Json.List
                            [
                              (if upper = Float.infinity then Json.Str "+inf"
                               else Json.Float upper);
                              Json.Int n;
                            ])
                        buckets) );
               ]
         in
         (name, body))
       metrics)
