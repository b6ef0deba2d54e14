module rubic/bench

go 1.22

require rubic v0.0.0

replace rubic => ../
