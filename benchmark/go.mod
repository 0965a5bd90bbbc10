module lsasg/benchmark

go 1.24

require lsasg v0.0.0

replace lsasg => ../
