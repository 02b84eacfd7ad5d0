let gate_delay = 1.0
let ee_overhead = 0.25
