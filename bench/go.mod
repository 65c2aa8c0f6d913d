module dynagg/bench

go 1.24

require dynagg v0.0.0

replace dynagg => ../
