open Ir.Gate

type t = {
  name : string;
  description : string;
  circuit : Ir.Circuit.t;
  spec : Ir.Spec.t;
}

(* Benchmarks are deterministic; derive the expected bitstring from a
   noiseless simulation so the spec can never drift from the circuit. *)
let make name description n gates ~measured =
  let body = Ir.Circuit.create n gates in
  let circuit = Ir.Circuit.measure_all body measured in
  let spec = Ir.Spec.of_distribution measured (Sim.Runner.ideal_distribution body ~measured) in
  (match spec.Ir.Spec.expected with
  | (bits, p) :: _ when p < 1.0 ->
    failwith
      (Printf.sprintf "Programs.%s: output not deterministic (%s has p=%.3f)" name bits p)
  | _ -> ());
  { name; description; circuit; spec }

let custom ~name ~description ~n gates ~measured = make name description n gates ~measured

let check_bits name s =
  String.iter
    (function '0' | '1' -> () | _ -> invalid_arg (name ^ ": pattern must be 0/1"))
    s

let bv_with_string s =
  check_bits "Programs.bv_with_string" s;
  let data = String.length s in
  let n = data + 1 in
  let anc = data in
  let gates =
    [ One (X, anc) ]
    @ List.init n (fun q -> One (H, q))
    @ List.concat
        (List.init data (fun q ->
             if s.[q] = '1' then [ Two (Cnot, q, anc) ] else []))
    @ List.init data (fun q -> One (H, q))
  in
  make
    (Printf.sprintf "BV%d" n)
    (Printf.sprintf "Bernstein-Vazirani, hidden string %s" s)
    n gates
    ~measured:(List.init data (fun q -> q))

let bv n =
  if n < 2 then invalid_arg "Programs.bv: need at least 2 qubits";
  bv_with_string (String.make (n - 1) '1')

(* Hidden shift for the Maiorana-McFarland bent function
   f(x) = x0 x1 + x2 x3 + ... (its dual is itself): H^n, shifted oracle,
   H^n, oracle, H^n recovers the shift. *)
let hidden_shift_with s =
  check_bits "Programs.hidden_shift_with" s;
  let n = String.length s in
  if n < 2 || n mod 2 = 1 then
    invalid_arg "Programs.hidden_shift_with: length must be even and >= 2";
  let h_all = List.init n (fun q -> One (H, q)) in
  let x_shift =
    List.concat (List.init n (fun q -> if s.[q] = '1' then [ One (X, q) ] else []))
  in
  let oracle = List.init (n / 2) (fun i -> Two (Cz, 2 * i, (2 * i) + 1)) in
  let gates = h_all @ x_shift @ oracle @ x_shift @ h_all @ oracle @ h_all in
  make
    (Printf.sprintf "HS%d" n)
    (Printf.sprintf "Hidden shift, pattern %s" s)
    n gates
    ~measured:(List.init n (fun q -> q))

let hidden_shift n = hidden_shift_with (String.make n '1')

let toffoli =
  make "Toffoli" "Toffoli gate on |110>" 3
    [ One (X, 0); One (X, 1); Ccx (0, 1, 2) ]
    ~measured:[ 0; 1; 2 ]

let fredkin =
  make "Fredkin" "Controlled swap on |110>" 3
    [ One (X, 0); One (X, 1); Cswap (0, 1, 2) ]
    ~measured:[ 0; 1; 2 ]

let or_gate =
  make "Or" "Logical OR of 1,0 into a target" 3
    (One (X, 0) :: Ir.Decompose.logical_or 0 1 2)
    ~measured:[ 0; 1; 2 ]

let peres =
  make "Peres" "Peres gate on |110>" 3
    ([ One (X, 0); One (X, 1) ] @ Ir.Decompose.peres 0 1 2)
    ~measured:[ 0; 1; 2 ]

(* Controlled phase from CNOTs and virtual-Z rotations. *)
let cphase theta a b =
  [
    One (Rz (theta /. 2.0), a);
    One (Rz (theta /. 2.0), b);
    Two (Cnot, a, b);
    One (Rz (-.theta /. 2.0), b);
    Two (Cnot, a, b);
  ]

let qft_inverse_gates n =
  (* Textbook inverse QFT (reversed forward QFT with negated phases),
     without the final bit-reversal swaps — the preparation step below
     already encodes the integer in the matching bit order. *)
  List.concat
    (List.init n (fun idx ->
         let i = n - 1 - idx in
         let phases =
           List.concat
             (List.init (n - 1 - i) (fun jdx ->
                  let j = n - 1 - jdx in
                  let theta = -.Float.pi /. Float.of_int (1 lsl (j - i)) in
                  cphase theta j i))
         in
         phases @ [ One (H, i) ]))

let qft n =
  if n < 2 then invalid_arg "Programs.qft: need at least 2 qubits";
  (* Prepare the Fourier state of k, then invert the QFT to recover |k>. *)
  let k = (1 lsl (n - 1)) + 1 in
  let prepare =
    (* The swap-less inverse QFT expects qubit i to carry the phase
       2 pi k / 2^(n-i) (bit-reversed relative to the textbook form). *)
    List.concat
      (List.init n (fun i ->
           let theta =
             2.0 *. Float.pi *. Float.of_int k /. Float.of_int (1 lsl (n - i))
           in
           [ One (H, i); One (Rz theta, i) ]))
  in
  make
    (Printf.sprintf "QFT%d" n)
    (Printf.sprintf "Inverse QFT recovering |%d>" k)
    n
    (prepare @ qft_inverse_gates n)
    ~measured:(List.init n (fun i -> i))

(* One-bit Cuccaro ripple-carry adder: qubits (cin, a, b, cout), inputs
   a = b = 1, cin = 0; after MAJ / carry-out / UMA, b holds the sum and
   cout the carry. *)
let adder =
  let cin = 0 and a = 1 and b = 2 and cout = 3 in
  make "Adder" "1-bit Cuccaro adder computing 1+1+0" 4
    [
      One (X, a); One (X, b);
      (* MAJ *)
      Two (Cnot, a, b); Two (Cnot, a, cin); Ccx (cin, b, a);
      (* carry out *)
      Two (Cnot, a, cout);
      (* UMA *)
      Ccx (cin, b, a); Two (Cnot, a, cin); Two (Cnot, cin, b);
    ]
    ~measured:[ cin; a; b; cout ]

let custom_distribution ~name ~description ~n gates ~measured =
  let body = Ir.Circuit.create n gates in
  let dist = Sim.Runner.ideal_distribution body ~measured in
  {
    name;
    description;
    circuit = Ir.Circuit.measure_all body measured;
    spec = Ir.Spec.distribution measured dist;
  }

let ghz n =
  if n < 2 then invalid_arg "Programs.ghz: need at least 2 qubits";
  let gates =
    One (H, 0) :: List.init (n - 1) (fun i -> Two (Cnot, i, i + 1))
  in
  let measured = List.init n (fun q -> q) in
  let body = Ir.Circuit.create n gates in
  let spec =
    Ir.Spec.distribution measured
      [ (String.make n '0', 0.5); (String.make n '1', 0.5) ]
  in
  {
    name = Printf.sprintf "GHZ%d" n;
    description = Printf.sprintf "%d-qubit GHZ state (half 0s, half 1s)" n;
    circuit = Ir.Circuit.measure_all body measured;
    spec;
  }

let grover2 =
  let diffusion =
    [ One (H, 0); One (H, 1); One (X, 0); One (X, 1); Two (Cz, 0, 1);
      One (X, 0); One (X, 1); One (H, 0); One (H, 1) ]
  in
  make "Grover2" "Two-qubit Grover search for |11>" 2
    ([ One (H, 0); One (H, 1); Two (Cz, 0, 1) ] @ diffusion)
    ~measured:[ 0; 1 ]

let grover3 iterations =
  if iterations < 1 then invalid_arg "Programs.grover3: need at least one iteration";
  let h_all = List.init 3 (fun q -> One (H, q)) in
  let x_all = List.init 3 (fun q -> One (X, q)) in
  (* CCZ = H on the target around a Toffoli. *)
  let ccz = [ One (H, 2); Ccx (0, 1, 2); One (H, 2) ] in
  let oracle = ccz in
  let diffusion = h_all @ x_all @ ccz @ x_all @ h_all in
  let round = oracle @ diffusion in
  custom_distribution
    ~name:(Printf.sprintf "Grover3-x%d" iterations)
    ~description:(Printf.sprintf "3-qubit Grover for |111>, %d iteration(s)" iterations)
    ~n:3
    (h_all @ List.concat (List.init iterations (fun _ -> round)))
    ~measured:[ 0; 1; 2 ]

let all =
  [
    bv 4; bv 6; bv 8;
    hidden_shift 2; hidden_shift 4; hidden_shift 6;
    toffoli; fredkin; or_gate; peres;
    qft 4; adder;
  ]

let extras = [ ghz 3; ghz 5; grover2; grover3 2 ]

let find name =
  let target = String.lowercase_ascii name in
  List.find_opt (fun b -> String.lowercase_ascii b.name = target) (all @ extras)
