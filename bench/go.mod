module vcalab/bench

go 1.24

require vcalab v0.0.0

replace vcalab => ../
