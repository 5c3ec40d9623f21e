type t = Base | Vino | Null | Unsafe | Safe | Verified | FlowChecked | Abort

let all = [ Base; Vino; Null; Unsafe; Safe; Verified; FlowChecked; Abort ]

let name = function
  | Base -> "Base path"
  | Vino -> "VINO path"
  | Null -> "Null path"
  | Unsafe -> "Unsafe path"
  | Safe -> "Safe path"
  | Verified -> "Verified path"
  | FlowChecked -> "FlowChecked path"
  | Abort -> "Abort path"
