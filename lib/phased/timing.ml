type t = { gate_delay : float; ee_overhead : float }

let default = { gate_delay = 1.0; ee_overhead = 0.25 }
let guarded t ~delay ready = ready +. delay +. t.ee_overhead
let early t ready = ready +. t.ee_overhead
