let rec split_at k = function
  | x :: rest when k > 0 ->
      let first, rest = split_at (k - 1) rest in
      (x :: first, rest)
  | l -> ([], l)
