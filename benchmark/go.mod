module datavirt/benchmark

go 1.22

require datavirt v0.0.0

replace datavirt => ../
