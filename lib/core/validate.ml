let executable_of_compiled ?measured (c : Compiled.t) =
  {
    Analysis.Check.machine = c.Compiled.machine;
    hardware = c.Compiled.hardware;
    initial_placement = c.Compiled.initial_placement;
    final_placement = c.Compiled.final_placement;
    readout_map = c.Compiled.readout_map;
    measured;
    two_q_count = c.Compiled.two_q_count;
    pulse_count = c.Compiled.pulse_count;
    esp = c.Compiled.esp;
  }

let check_compiled ?measured c =
  Analysis.Check.check_executable (executable_of_compiled ?measured c)
