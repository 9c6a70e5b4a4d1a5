type attr = Str of string | Int of int | Float of float | Bool of bool

type t = {
  id : int;
  parent : int option;
  name : string;
  domain : int;
  start_ns : int64;
  dur_ns : int64;
  attrs : (string * attr) list;
}

let enabled_flag = Atomic.make false
let next_id = Atomic.make 0
let sink : t list ref = ref []
let sink_mutex = Mutex.create ()

(* Stack of open span ids on the current domain; the head is the parent
   of the next span opened here. *)
let open_stack : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let reset () =
  Mutex.lock sink_mutex;
  sink := [];
  Mutex.unlock sink_mutex

let collected () =
  Mutex.lock sink_mutex;
  let spans = !sink in
  Mutex.unlock sink_mutex;
  List.sort
    (fun a b ->
      match Int64.compare a.start_ns b.start_ns with
      | 0 -> compare a.id b.id
      | c -> c)
    spans

let record span =
  Mutex.lock sink_mutex;
  sink := span :: !sink;
  Mutex.unlock sink_mutex

(* Open a span on this domain: allocate an id, note the parent, push.
   Returns everything [finish] needs. The push/record decision is made
   here once, so a concurrent enable/disable flip cannot unbalance the
   per-domain stack. *)
let start name attrs =
  let id = Atomic.fetch_and_add next_id 1 in
  let stack = Domain.DLS.get open_stack in
  let parent = match !stack with [] -> None | p :: _ -> Some p in
  stack := id :: !stack;
  let start_ns = Clock.now_ns () in
  (id, parent, name, attrs, start_ns)

let finish ?(extra = []) (id, parent, name, attrs, start_ns) =
  let dur_ns = Clock.elapsed_ns ~since:start_ns in
  let stack = Domain.DLS.get open_stack in
  (match !stack with top :: rest when top = id -> stack := rest | _ -> ());
  record
    {
      id;
      parent;
      name;
      domain = (Domain.self () :> int);
      start_ns;
      dur_ns;
      attrs = attrs @ extra;
    };
  dur_ns

let with_span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let open_span = start name attrs in
    match f () with
    | v ->
      ignore (finish open_span);
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (finish open_span);
      Printexc.raise_with_backtrace e bt
  end

let timed ?(attrs = []) ?(result_attrs = fun _ -> []) name f =
  if not (Atomic.get enabled_flag) then begin
    let t0 = Clock.now_ns () in
    let v = f () in
    (v, Clock.ns_to_s (Clock.elapsed_ns ~since:t0))
  end
  else begin
    let open_span = start name attrs in
    match f () with
    | v ->
      let dur_ns = finish ~extra:(result_attrs v) open_span in
      (v, Clock.ns_to_s dur_ns)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (finish open_span);
      Printexc.raise_with_backtrace e bt
  end
