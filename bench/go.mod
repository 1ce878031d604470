module eona/bench

go 1.22

require eona v0.0.0

replace eona => ../
