module dscs/benchmark

go 1.24

require dscs v0.0.0

replace dscs => ../
