type generation = {
  year : int;
  lambda_um : float;
  chip_mm2 : float;
  lambda2_per_chip : float;
  lambda2_per_mm2 : float;
}

(* Paper, Table 1 (SIA 1994 roadmap).  Capacities are in raw lambda^2
   (the paper's table lists them in units of 10^6). *)
let generations =
  [
    {
      year = 1998;
      lambda_um = 0.25;
      chip_mm2 = 300.0;
      lambda2_per_chip = 4800.0e6;
      lambda2_per_mm2 = 16.0e6;
    };
    {
      year = 2001;
      lambda_um = 0.18;
      chip_mm2 = 360.0;
      lambda2_per_chip = 11111.0e6;
      lambda2_per_mm2 = 30.86e6;
    };
    {
      year = 2004;
      lambda_um = 0.13;
      chip_mm2 = 430.0;
      lambda2_per_chip = 25443.0e6;
      lambda2_per_mm2 = 59.17e6;
    };
    {
      year = 2007;
      lambda_um = 0.10;
      chip_mm2 = 520.0;
      lambda2_per_chip = 52000.0e6;
      lambda2_per_mm2 = 100.0e6;
    };
    {
      year = 2010;
      lambda_um = 0.07;
      chip_mm2 = 620.0;
      lambda2_per_chip = 126530.0e6;
      lambda2_per_mm2 = 204.08e6;
    };
  ]

let by_year y = List.find_opt (fun g -> g.year = y) generations

let label g = Printf.sprintf "%.2fum (%d)" g.lambda_um g.year
