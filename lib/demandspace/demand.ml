type t = int

let of_int i =
  if i < 0 then invalid_arg "Demand.of_int: negative demand id";
  i

let to_int d = d
let pp ppf d = Fmt.pf ppf "demand#%d" d

type coords = { var1 : int; var2 : int }

let to_coords ~width d =
  if width <= 0 then invalid_arg "Demand.to_coords: width must be positive";
  { var1 = d mod width; var2 = d / width }

let of_coords ~width { var1; var2 } =
  if width <= 0 then invalid_arg "Demand.of_coords: width must be positive";
  if var1 < 0 || var1 >= width || var2 < 0 then
    invalid_arg "Demand.of_coords: coordinates out of range";
  (var2 * width) + var1
