type t = {
  scale : float;
  n_validation : int;
  n_validation_stat : int;
  n_seeds : int;
  n_seeds_fig9 : int;
  ks : int list;
  lut_budgets : int list;
  ks_stat : int list;
  lut_budgets_stat : int list;
  rng_seed : int;
}

let scaled scale base lo = max lo (int_of_float (float_of_int base *. scale))

let with_scale scale =
  if scale <= 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Config.with_scale" "scale must be > 0";
  {
    scale;
    n_validation = scaled scale 300 30;
    n_validation_stat = scaled scale 40 8;
    n_seeds = scaled scale 100 12;
    n_seeds_fig9 = scaled scale 160 16;
    ks = [ 1; 2; 3; 5; 10; 20; 50; 100 ];
    lut_budgets = [ 2; 4; 8; 12; 18; 27; 48; 64; 100 ];
    ks_stat = [ 1; 2; 3; 5; 7; 10; 20 ];
    lut_budgets_stat = [ 4; 8; 18; 32; 60 ];
    rng_seed = 42;
  }
